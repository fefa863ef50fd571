"""The "same bits" promises as checks: SHA-256 pins of the risk tables, of the
sampled count stacks, of kernel batches that hold divergent pairs and of the
stdout of a set of valid CLI calls, recorded
before a change to the code and kept by every change that does not mean to
move bits.  A change that moves bits on purpose updates the pin it moves in
the same commit.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from nmshrink.cli import main
from nmshrink.kernel import GChoice, delta_hb, log_kernel
from nmshrink.risklab import CASES, _sample_stack

# `repro tables --reps 1000 --seed 42`: table1.csv to table4.csv, serial and
# with --jobs 2 alike.
TABLES = {
    "table1.csv": "1c533a292d90a0d6e23e9528a168f6c943a33062242c706081a0e1f6bb41dcac",
    "table2.csv": "bdba78d8eacb7f591512bf24bf4c7087b3e3948a6ee20e52bcdd64e1e32c9178",
    "table3.csv": "1c24c9ba66e88c39792b9eece75c9e1612dcf84d52bd730f25f0527e9a054a64",
    "table4.csv": "97d6f6d2a343da8fab4ead0d6384be3dafa66dcfbf09f5cd96f37495d7cfe436",
}

# `_sample_stack(sc.params, 42, range(1000)).tobytes()` of each preset sc.
STACKS = {
    "i-1": "aa060bdd69b49ba9d017d4590585c183d0c1f3cb46b726652c89c9b029147a71",
    "i-2": "18d6967c9fe7b32aa4f16f782bee8a84ccebcbb80a717e53ff5d7b6d330e4f23",
    "i-3": "bdad179e179635304735ec8edec85cb3b64ec9208dd60a3c3782b29fe7e7129f",
    "ii-1": "3c94195a2dc0afc28fa5a3189e13a22dadf47fb5db0c0d378825bc295dc90e3e",
    "ii-2": "35a9f657600ca4fb86b020bbf32324ee982b75a57e255861f905a2054673ca8e",
    "ii-3": "d099e5a98781b8b76f6fe25c19af508a8f8bd07c9c5a7283ff95a9248a2508dc",
    "iii-1": "30019be032c044bf1ffc8ab61c7abf38faf85e9afaaa995a0e4efd9008dc0b3b",
    "iii-2": "92d35714546f80f2625d4d8c9f53554afa7d8704235fc799fb8d123bf548d0ce",
    "iii-3": "4223d6cdb11900259f7a53b8f70e6ae71610905d10c984174538ddfe8ef9006a",
}

G1 = GChoice.constant_one()
# `log_kernel(alphas, beta, g, xi0, xi).tobytes()` of batches whose kernels
# diverge at some (row, exponent) pairs, by the shape of that divergence.
KERNELS = {
    "K(alpha + 1) diverges on some rows": (
        [6.5, 7.5], 0.0, G1, 1.0, [[7, 0], [30, 0], [3, 4], [9, 0], [1, 7]],
        "9e026f8741633cb67918fc295b944e263aa3ff80ef04efe4524d241e1a976c2c"),
    "K(alpha + 1) diverges on every row": (
        [6.5, 7.5], 0.0, G1, 1.0, [[7, 0], [3, 4], [2, 5]],
        "520d0b7657a11c4752f1037a89dea1223444a5b95ba3169ab1d236ca0cf8d136"),
    "a dead row next to live rows": (
        [1.5, 2.5], 1.0, G1, 0.0, [[1, 1, 1], [0, 0, 3], [0, 2, 2], [0, 0, 0.5]],
        "b3375e6d102cd532b8c6dac38b3e964747650f10890639459791e60c339d8eb2"),
    "komaki weight, xi0 = 0": (
        [1.2, 2.2], 1.0, GChoice.komaki(0.5, 1.0), 0.0, [[1, 1, 1], [0, 0, 3], [0, 2, 2]],
        "0ab03b19954ef453fb3cf69347a4872d717cf171b945edff28d5e39ae582198d"),
    "an exponent that converges at no row": (
        [0.5, 1e307], 0.0, G1, 1.0, [[1], [2]],
        "ce02dc15b01f52b1d067f9d9b8a2e415b68d10d55db291bea32ed38e72092e90"),
    "divergent pairs in three row blocks": (
        [5.5, 6.5], 0.0, G1, 0.0, np.random.default_rng(5).integers(0, 9, size=(300, 2)),
        "8621be1719a6e46ae1481c0c989e131a5b6f3d499952559b7ccbedd696dfe465"),
}
# `delta_hb(6.5, 0.0, G1, 8.0, 7, z).tobytes()`: [inf, 55.78, inf, 9.81].
DELTA_Z = [[0], [1], [0], [4]]
DELTA = "89aeeca4ab42b32d841201edd90370d4217ed2ce0caf4c302fcce93d146a4430"

# One fixed 7 x 3 count matrix (column sums 9, 8, 8, zeros in every column),
# a prior on it, and kernel documents: a finite one, one whose K(alpha + 1)
# alone diverges and one whose two kernels diverge; {name} is the file's path.
FILES = {
    "counts": "3,0,1\n2,1,0\n0,4,2\n1,1,1\n0,0,3\n2,2,0\n1,0,1\n",
    "prior": '{"alpha": 14, "beta": 1, "a0": -3, "a": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}',
    "kernel": '{"alpha": 6, "beta": 1, "xi0": 1, "xi": [3, 2, 4]}',
    "kernel_tail": '{"alpha": 6.5, "beta": 0, "xi0": 1, "xi": [3, 2, 2]}',
    "kernel_both": '{"alpha": 1.5, "beta": 1, "xi0": 0, "xi": [1, 1, 1]}',
}
HALVES = ",".join(["0.5"] * 7)
# Each valid call, by name, and the SHA-256 of the bytes it prints.
CALLS = {
    "estimate umvu": ["estimate", "--estimator", "umvu", "--r", "8", "--in", "{counts}"],
    "estimate eb": ["estimate", "--estimator", "eb", "--r", "8", "--in", "{counts}"],
    "estimate eb0": ["estimate", "--estimator", "eb0", "--r", "8", "--in", "{counts}"],
    "estimate hb": ["estimate", "--estimator", "hb", "--r", "8", "--alpha", "14",
                    "--in", "{counts}"],
    "estimate dir-pm": ["estimate", "--estimator", "dir-pm", "--r", "8", "--a0", "-3",
                        "--a", HALVES, "--in", "{counts}"],
    "estimate hb-pm": ["estimate", "--estimator", "hb-pm", "--r", "8", "--alpha", "14",
                       "--a0", "-3", "--a", HALVES, "--in", "{counts}"],
    "kernel-eval": ["kernel-eval", "--in", "{kernel}"],
    "kernel-eval, K(alpha + 1) diverges": ["kernel-eval", "--in", "{kernel_tail}"],
    "kernel-eval, both diverge": ["kernel-eval", "--in", "{kernel_both}"],
    "audit --table1": ["audit", "--table1"],
    "risk-sim": ["risk-sim", "--scenario", "i", "--reps", "10", "--seed", "3"],
    "gibbs-diag": ["gibbs-diag", "--counts", "{counts}", "--prior", "{prior}", "--r", "8",
                   "--iters", "2000", "--burn-in", "500", "--seed", "7"],
}
STDOUT = {
    "estimate umvu": "827fdcd80d141740aad52452d2d4316b39d4a061b5f57842505ff7608d183c3d",
    "estimate eb": "e80496d764fd5d002203c19222f81b821b8ab12b936e84d0e9472123d4f9c4a8",
    "estimate eb0": "a0c6db052776f7aa833e7d4cacf1ebd9acb00b3b5d55d972545ff89ff2a68a87",
    "estimate hb": "a3ba8661799a1f48df4fcef24f13af1fbe4c544a722c5318ff170204b3c45e78",
    "estimate dir-pm": "bf1f24266c03a7552ffc49ea7fd698a73899cd9134f2d16ae68c22066d995fd1",
    # Recorded when `delta_nu` began to take each column's row from its count
    # vector's base row: the first column moved by at most 2.6e-15 relative (it was
    # 5eaa329fd4b43e6824d6f679bb23e818ba74c7c478f5bfa933c5150b0f1ff6ee).
    "estimate hb-pm": "08d569fbe7076e4378f8070a72fbd2f0e9dca9eea3a8d553ddcd58535c0f875c",
    "kernel-eval": "2b1c26ca69eacbc791e01cba320cd1292fd7e86631ddf0028834a48774c20a5b",
    "kernel-eval, K(alpha + 1) diverges":
        "2dbe58712f6a1a522c51241bf42790e86424d9c3c1911a84180527ff960fe4c1",
    "kernel-eval, both diverge":
        "b4d65d29c52c629b53a155063269eb5c567d0c98b15995e3d3f667b749e7779b",
    "audit --table1": "85dca118f646296423fc3b797b040b1a515e2efce5fec6af4553bf7bc4a0f62c",
    "risk-sim": "257d655151aa6b7edaab0d6387ebccbff180510c2d8f6d2e76866005fbcb3249",
    "gibbs-diag": "00d684dbc628c440db7d241ff32fbe9ec12d92ca20dc7946779065e03ffd8725",
}


def stdout_of(argv: list[str]) -> str:
    """What `main(argv)` prints to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("pins")
    for name, text in FILES.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in FILES}


class TestTablePins:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_tables_keep_their_bits(self, tmp_path, jobs):
        out = tmp_path / "tables"
        stdout_of(["repro", "tables", "--reps", "1000", "--seed", "42",
                   "--jobs", jobs, "--out", str(out)])
        got = {name: sha256((out / name).read_bytes()) for name in TABLES}
        assert got == TABLES


class TestStackPins:
    def test_stacks_keep_their_bits(self):
        got = {name: sha256(_sample_stack(truth, 42, range(1000)).tobytes())
               for case in CASES.values() for name, truth in case.truths.items()}
        assert got == STACKS


class TestKernelPins:
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernels_keep_their_bits(self, name):
        alphas, beta, g, xi0, xi, want = KERNELS[name]
        got = log_kernel(alphas, beta, g, xi0, np.array(xi, dtype=float))
        assert sha256(np.asarray(got).tobytes()) == want

    def test_delta_hb_keeps_its_bits(self):
        got = delta_hb(6.5, 0.0, G1, 8.0, 7, np.array(DELTA_Z))
        assert sha256(np.asarray(got).tobytes()) == DELTA, got


class TestCliPins:
    @pytest.mark.parametrize("name", CALLS)
    def test_stdout_keeps_its_bytes(self, paths, name):
        text = stdout_of([a.format(**paths) for a in CALLS[name]])
        assert sha256(text.encode()) == STDOUT[name], text
