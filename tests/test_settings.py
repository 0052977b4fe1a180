import os

import conftest


def test_warnings_are_errors_except_one_import_message(pytestconfig):
    # every warning fails a test, except the DeprecationWarning raised when
    # hypothesis's failure report imports libcst: as an error it aborts the
    # whole suite at the first failing hypothesis test
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    assert filters[1:] == [
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]


def test_blas_runs_one_thread_set_before_numpy_loads():
    # conftest sets the thread count; it takes effect only if numpy (and
    # with it OpenBLAS) was not loaded before conftest ran
    assert not conftest.NUMPY_LOADED_FIRST
    for var in conftest.BLAS_THREAD_VARS:
        assert os.environ[var] == "1"
