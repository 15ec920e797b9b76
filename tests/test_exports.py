"""The package's export list."""

import dpplab


def test_all_is_unique_resolves_and_star_imports():
    names = dpplab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dpplab, name)] == []
    scope = {}
    exec("from dpplab import *", scope)
    assert set(names) <= set(scope)


def test_cold_import_loads_no_process_pool_argparse_or_cli(run_python):
    # `import dpplab` is what every command and benchmark set-up pays for
    code = ("import sys, dpplab\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures',"
            " 'argparse', 'dpplab.cli') if m in sys.modules))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
