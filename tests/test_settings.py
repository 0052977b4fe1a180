def test_warnings_are_errors_except_one_import_message(pytestconfig):
    # every warning fails a test, except the DeprecationWarning raised when
    # hypothesis's failure report imports libcst: as an error it aborts the
    # whole suite at the first failing hypothesis test
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    assert filters[1:] == [
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]
