"""The command line as a user starts it: each test runs a fresh interpreter,
``python -m circsing.cli`` or a short ``-c`` script, with this checkout's
package first on the path, the BLAS thread variables cleared and stdout
buffered (``PYTHONUNBUFFERED`` cleared)."""
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from circsing import cli
from circsing.mcsim import sample_singularity

import oracles

SRC = os.path.dirname(os.path.dirname(cli.__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CLEARED = (*BLAS_VARS, "PYTHONUNBUFFERED")


def python(*args, timeout=120, preexec_fn=None, stdout=subprocess.PIPE, **env):
    """Run a fresh interpreter; ``env`` adds to the environment, which has
    neither BLAS variable nor ``PYTHONUNBUFFERED`` unless it names one.
    stdout is captured unless ``stdout`` names an open file for it."""
    base = {k: v for k, v in os.environ.items() if k not in CLEARED}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, preexec_fn=preexec_fn)


def imported(stderr: str) -> set[str]:
    """Top-level packages named in an ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in stderr.splitlines() if line.startswith("import time:")}


class TestNumpyOnFirstUse:
    @pytest.mark.parametrize("code", [
        "import circsing",
        "import circsing.cli; circsing.cli.build_parser()",
    ])
    def test_import_leaves_numpy_unloaded(self, code):
        done = python("-c", f"import sys; {code}; print('numpy' in sys.modules)")
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    @pytest.mark.parametrize("argv, loads_numpy", [
        (["divisor", "--n", "30", "--d", "6", "--q", "1/3"], False),
        (["bounds", "--n", "30", "--q", "1/3"], False),
        (["asym", "--n", "101", "--q", "1/2"], False),
        (["exact", "--n", "7", "--q", "1/2"], False),  # closed-form union
        # the exhaustive union and the mask do load it, which shows the
        # import log sees numpy when it is loaded
        (["exact", "--n", "8", "--q", "1/2"], True),
        (["mc", "--n", "6", "--q", "1/2", "--samples", "100"], True),
    ], ids=["divisor", "bounds", "asym", "exact-closed-form", "exact-join", "mc"])
    def test_commands_load_numpy_only_to_test_rows(self, argv, loads_numpy):
        done = python("-X", "importtime", "-m", "circsing.cli", *argv)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)
        assert ("numpy" in imported(done.stderr)) is loads_numpy


# n = 2 * (2^127 - 1): its smallest prime, 2, is found at once, while
# factoring the prime cofactor by trial division would not end.  bounds
# refuses it from its exponent, asym needs only p(n) = 2.
HUGE = str(oracles.HUGE_N[0])
FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize("argv, timeout, code", [
    (["bounds", "--n", HUGE, "--q", "1/2"], 60, 3),
    pytest.param(["exact", "--n", "4", "--q", "1/2", "--output", "/dev/full"],
                 60, 3, marks=FULL),
    (["exact", "--n", "4", "--q", "0.5"], 60, 2),
    (["asym", "--n", HUGE, "--q", "0.5"], 60, 0),
    (["asym", "--n", HUGE, "--q", "0.5", "--formula", "closed"], 60, 0),
    # sums 99 992 squared binomial masses at the edge of the exponent
    # budget: the binary-splitting power sum takes seconds, a term-by-term
    # sum about 5 minutes
    (["divisor", "--n", "199982", "--d", "2", "--q", "1/3"], 120, 0),
], ids=["bounds-huge-n", "exact-full-disk", "exact-float-q", "asym-huge-n",
        "asym-closed-huge-n", "divisor-n199982"])
def test_exit_code_through_main(argv, timeout, code):
    # main, not run: a main that dropped run's exit code passes every
    # in-process test
    done = python("-m", "circsing.cli", *argv, timeout=timeout)
    assert done.returncode == code, done.stderr
    if code:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    else:
        assert json.loads(done.stdout) and done.stderr == ""


def closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return open(write, "w")


@pytest.mark.skipif(sys.platform == "win32", reason="needs /dev/full and pipes")
@pytest.mark.parametrize("sink", [
    pytest.param(lambda: open("/dev/full", "w"), marks=FULL),
    closed_pipe,
], ids=["full-disk", "closed-pipe"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "bounds"],
    ["exact", "--n", "4", "--q", "1/2"],
], ids=["verify", "exact"])
def test_failed_stdout_through_main(argv, sink):
    # the process's own stdout, not a file run opens and closes: a failed
    # write leaves its bytes buffered, and unless main drops them the
    # interpreter's flush at exit fails again, prints "Exception ignored"
    # and turns exit 3 into 120
    with sink() as stdout:
        done = python("-m", "circsing.cli", *argv, timeout=60, stdout=stdout)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: cannot write stdout: ")
    assert done.stderr.count("\n") == 1


def two_gb_address_space():
    import resource
    soft, hard = 2_000_000 << 10, resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
def test_out_of_memory_is_resource_error(tmp_path):
    # a child held to 2 GB of address space, with the row cap lifted: the
    # 10^10 rows of the range cannot be listed, which is one line and exit 3
    # (under the cap they are refused before listing: test_cli)
    path = tmp_path / "table.csv"
    done = python("-c", "import sys; from circsing import cli; "
                        "cli.TABLE_ROWS_CAP = 10 ** 11; sys.exit(cli.run(sys.argv[1:]))",
                  "table", "--n-range", "2:10000000000", "--q", "1/2",
                  "--output", str(path), preexec_fn=two_gb_address_space)
    assert (done.returncode, done.stdout, done.stderr) == \
        (3, "", "error: out of memory\n")
    assert path.read_text() == ""


MC_ARGV = ["mc", "--n", "127", "--q", "1/50", "--samples", "262144", "--seed", "1"]


@pytest.fixture(scope="module")
def mc_count():
    return sample_singularity(127, Fraction(1, 50), 262144, seed=1).singular_count


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class TestMcCount:
    """Rows are drawn on one worker thread per CPU in the affinity mask; the
    count printed by a fresh ``mc`` must be the in-process count whatever the
    shard split or the number of workers.  One row per shard must cost no
    thread hand-off per shard, hence its shorter timeout."""

    @pytest.mark.parametrize("extra, timeout, one_cpu_only", [
        ([], 120, False),
        (["--shards", "7"], 120, False),
        ([], 120, True),
        (["--shards", "262144"], 20, False),
    ], ids=["plain", "shards-7", "one-cpu", "one-row-shards"])
    def test_count_matches_in_process(self, mc_count, extra, timeout, one_cpu_only):
        if one_cpu_only and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity call on this platform")
        done = python("-m", "circsing.cli", *MC_ARGV, *extra, timeout=timeout,
                      preexec_fn=one_cpu if one_cpu_only else None)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["singular_count"] == mc_count


BLAS_PROBE = """\
import os, sys
from circsing import cli
sys.argv = ["circsing", "bounds", "--n", "6", "--q", "1/2", "--output", os.devnull]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
"""


class TestBlasThreads:
    @pytest.mark.parametrize("env, seen", [
        ({}, "1 None"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2 None"),
        ({"OMP_NUM_THREADS": "2"}, "None 2"),
    ], ids=["default", "openblas-set", "omp-set"])
    def test_main_pins_blas_unless_set(self, env, seen):
        done = python("-c", BLAS_PROBE, **env)
        assert (done.returncode, done.stdout) == (0, seen + "\n"), done.stderr

    def test_library_leaves_blas_alone(self):
        done = python("-c", "import os, circsing.cli; "
                            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert (done.returncode, done.stdout) == (0, "None\n"), done.stderr
