"""The row-by-row snapshot writer, kept as the byte-exact oracle for
``grid.write_field_snapshot``: each row is one ``"%.17g"`` format string
applied to the row's values."""


def write_field_snapshot(path, f, name: str, t: float) -> None:
    if "," in name:
        raise ValueError("snapshot name must not contain a comma")
    g = f.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.nx},{g.ny},{g.Lx:.17g},{g.Ly:.17g},{name},{t:.17g}\n")
        row = ",".join(["%.17g"] * g.nx) + "\n"
        fh.writelines(row % tuple(r) for r in f.values.tolist())
