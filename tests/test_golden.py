"""Output bytes pinned by sha256 digest.

Each case runs one ``weakmeas`` command on a fixed config and compares the
sha256 of one output file with a digest recorded from the cell-by-cell
writers (``csv.writer`` over ``format_cell``; ``json.dumps``), so the
column writers' claim to write the same bytes is checked on every run. The
``lindblad_decomposition`` digests cover the x, joint and pw columns only:
its error column comes from a contraction whose rounding differs from the
dense products it replaced. The ``postselect_prob``, ``kick``,
``sequential`` and ``collective`` digests were recorded when those tables
still reached the writers as lists of rows, before they became structured
arrays. The ``kick_grid_flag`` and ``simulate_flags`` configs are partly
filled from command-line flags; their digests, recorded while the config
hash still converted its document through ``jsonable``, pin the
``config_sha256`` of override-built configs.

A digest that stops matching means the output bytes changed. If that is
intended, say which numbers moved and by how much before updating it.
"""

import hashlib
import json

import pytest

from weakmeas.cli import main

OBSERVABLE = [[1, 0], [0.5, -0.2], [0, 0], [0.5, 0.2], [-0.3, 0], [0, 0.7], [0, 0], [0, -0.7], [0.4, 0]]
OBSERVABLE_B = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [-1, 0]]
DEGENERATE_B = [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [-1, 0]]  # diag(1, 1, -1)
PSI = [[0.8, 0], [0, 0.6], [0, 0]]
PHI = [[0.36, 0], [-0.48, 0.1], [0.8, 0]]
BASE = {"observable": OBSERVABLE, "psi": PSI, "phi": PHI}
SIMULATE = {**BASE, "observable_b": OBSERVABLE_B, "lambda": 0.3, "trials": 3000, "seed": 5}

# (case, command, config, extra flags, output file stem)
CASES = [
    *(
        (f"simulate_{p}", "simulate", {**SIMULATE, "protocol": p}, [], "records")
        for p in ("single", "kick", "sequential")
    ),
    # 70,000 trials: two blocks, the second ending in a partial tile
    (
        "simulate_sequential_blocks",
        "simulate",
        {**SIMULATE, "observable_b": DEGENERATE_B, "protocol": "sequential", "trials": 70000},
        [],
        "records",
    ),
    (
        "simulate_single_blocks",
        "simulate",
        {**SIMULATE, "protocol": "single", "lambda": 2.0, "trials": 70000},
        [],
        "records",
    ),
    # 100 lambda = 1: about a sixth of the runs pass the threshold
    (
        "simulate_threshold",
        "simulate",
        {"observable": OBSERVABLE, "psi": PSI, "protocol": "threshold", "lambda": 0.01, "trials": 3000, "seed": 5},
        [],
        "records",
    ),
    ("density_x", "density", {**BASE, "lambda": 0.4}, [], "density"),
    ("cdf_x", "density", {**BASE, "lambda": 0.4}, [], "cdf"),
    ("density_xprime", "density", {**BASE, "lambda": 0.4}, ["--basis", "xprime"], "density"),
    ("cdf_xprime", "density", {**BASE, "lambda": 0.4}, ["--basis", "xprime"], "cdf"),
    ("sequential_density", "sequential", {**BASE, "observable_b": OBSERVABLE_B}, [], "sequential_density"),
    ("lindblad_decomposition", "lindblad", {**BASE, "lambda": 0.4}, [], "lindblad_decomposition"),
    # coupling-grid and N-grid tables; 2**70 is past int64, so its column is written from Python ints
    ("postselect_prob", "postselect-prob", BASE, [], "postselect_prob"),
    ("kick", "kick", BASE, [], "kick"),
    ("sequential", "sequential", {**BASE, "observable_b": OBSERVABLE_B}, [], "sequential"),
    ("collective", "collective", {**BASE, "n_grid": [10, 2**70]}, [], "collective"),
    ("threshold", "threshold", {"observable": OBSERVABLE, "psi": PSI}, [], "threshold"),
    # configs partly filled from flags: the overrides join the hashed document, whose
    # config_sha256 every file carries
    ("kick_grid_flag", "kick", BASE, ["--lambda-grid", "0.2,0.1,0.05"], "kick"),
    (
        "simulate_flags",
        "simulate",
        {**BASE, "protocol": "single"},
        ["--seed", "3", "--trials", "1000", "--lambda", "0.05"],
        "records",
    ),
]

DIGESTS = {
    "simulate_single.csv": "022f322843824c6cafb7c74e2767fc0e089b3691a2108daa18df9e3d7f238eb9",
    "simulate_single.json": "a0bd7e22c29e76f59a646fb2d6c32262c367cda6c9bd13675b9f8b7accd3c9ff",
    "simulate_kick.csv": "9c4446f40987ef476d055c56c31237ceb09774983d2745830069ce24f3d3bdd4",
    "simulate_kick.json": "2a950191b480bc7adcfd8ebd1056c2fb1796f3b7f07222bd871f48576c41968f",
    "simulate_sequential.csv": "33740a868ab9c153f35c7dff4030669a833728cddcee5787bd65dc419b1b64ae",
    "simulate_sequential.json": "b6a8fc4f954ffa909770f032e04660e2c0a713661904ecde5fe3fc8e15b5786f",
    # recorded before the Monte Carlo kernels dropped the Gaussian constant and the sqrt
    "simulate_sequential_blocks.csv": "8eb6c3d872a30c31c4d92c7f20bd4657fd0040bafccc8f12fa808376ac379f11",
    "simulate_sequential_blocks.json": "28ca09da6d4855fca4967161dc835ecec46b28ac1e7f082216554ed7dceb3e66",
    "simulate_single_blocks.csv": "58a37156452299bad19f8a3654aa686101e3fbfa3ac970a4b0d1d4820b5730ff",
    "simulate_single_blocks.json": "cd9366004843699fd8f78b253d4f2ecadb4ee96ad92ba13b011896a104ff38a4",
    "simulate_threshold.csv": "8f964817ac3ce000fdc8774f759abe416f30b271e6166c33f487aaec6351731a",
    "simulate_threshold.json": "056ade3931109faf7ddf4857f36da9aae65948f13905543041bb4dbdebb00a8d",
    "density_x.csv": "db3c6e76c0c76f8fb79cd496da9ef855e8d7756435c91d67d3ae8e82901f0f52",
    "density_x.json": "33509289313d4bda70f4646b43341b813a97076c555141f0e927becdead4491c",
    "cdf_x.csv": "989a39323752465df587b681fd870b092ad0dc3a3b8838a5d894d19246420aa3",
    "cdf_x.json": "3770ae3b9b87f72e07419af6f11652a92af740771439d01c14248d7b756c7c59",
    "density_xprime.csv": "f19cb4f63be4a441094426fe307d540cf5c6e2a1fc6cc4affa4fd793de7dae2e",
    "density_xprime.json": "26b8ca632e6b12dde3269fb93ec0eeee466fb3db734562a79f7a58cbe3ccd439",
    "cdf_xprime.csv": "7d0f27505400a200da2ce9f9d7fd6e99f2e6c06be7b6ce0944a3b571eae1276f",
    "cdf_xprime.json": "b3f4ab9eba4c8c5ddfe1979346700e5ac4216df7b79de324e9a3ddf762ade5cf",
    "sequential_density.csv": "1afec8f913d58e3355a791e3200a74686aaa9ceaceddc65a4ebeb090d6c0b52b",
    "sequential_density.json": "4d00ebc5e836fcf92e999b198f1c07089c2b0d216021baf5304c526af089272e",
    "lindblad_decomposition.csv": "9b076af2cb041e901e1ba7cacd0d2ac08af62c4cd346d03b9134efbf518af5b0",
    "lindblad_decomposition.json": "4ba9fd02867233c84f9e8dd63701f97428783349d825e8822800a51109e9ce7e",
    "postselect_prob.csv": "2d6af267314c3ca4409e8ce8ce040f855fabbb00727a96cd40da96079fe01856",
    "postselect_prob.json": "362c8e48e800eca46033a45570b74437931ccae63f92c9e2fbf89f3ee730b30a",
    "kick.csv": "2f4926b935d653645cb7e7f57856b5aee13dc9e17dd08f1e203705f07457e9e9",
    "kick.json": "7282bc2246aaaeb1606d490fb7a55a02e2343d923aa9623bd54c18aeddce905e",
    "sequential.csv": "f9e4e574875a6c5c16823116798bfaf84bdf9d05e30a49d2214b897d81447d74",
    "sequential.json": "3de89318fda522efc37437cd0819e2d6d4494cfbe37907a19bffadc3752cfdfc",
    "collective.csv": "b33635726b7e8b50f743d296d3431e2ac5c693fc43000ad3b39a1a5425c6087a",
    "collective.json": "5c1987f22c875bcfbef85099c68b797145a1211df20e0ca509c5420db50c490e",
    # recorded after the straight-line fit in lambda moved from np.polyfit to lstsq; against
    # the polyfit digits the intercept moved by 2.7e-15 and fit_residual by 8.2e-16
    "threshold.csv": "f7c785b859dbb025b89336d5e1102d8500bc4023fdf287690406ab603eac5e8d",
    "threshold.json": "f56d361a4654c71d04897a62a3556636ccd3383551bf6a0f6e1e2109c3c7d4ad",
    "kick_grid_flag.csv": "d771a9009818f3f1718023a5abe8755ae63350c31a0542ae6e6d8ffcc108f57e",
    "kick_grid_flag.json": "818c54c648fcbac814efc218e4a8a223cef91d5010b25868d7d6115a941f1d4b",
    "simulate_flags.csv": "d9211ba5fe686e247a7363ec55180614b4896497f077da05aa9e041f3c7be32c",
    "simulate_flags.json": "7af4d2c10f63409ffdf4861b358c2fcaa9b34e3399ea80f4bbf4702c83317e7c",
}


def _without_last_column(text: str, fmt: str) -> bytes:
    """The table with each row's last cell left out (CSV) or its rows cut to
    their first cells (JSON, re-dumped as ``json.dumps`` lays it out)."""
    if fmt == "csv":
        lines = text.split("\r\n")
        kept = [line.rsplit(",", 1)[0] + "\r\n" for line in lines[:-1]]
        return ("".join(kept) + lines[-1]).encode()
    doc = json.loads(text)
    doc["columns"] = doc["columns"][:-1]
    doc["rows"] = [row[:-1] for row in doc["rows"]]
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def output_digest(out_dir, case: str, fmt: str) -> str:
    """Run one case and return the sha256 of its output file."""
    _, command, cfg, flags, stem = next(c for c in CASES if c[0] == case)
    argv = [command, "--config", json.dumps(cfg), "--out", str(out_dir), "--format", fmt, *flags]
    assert main(argv) == 0
    path = out_dir / f"{stem}.{fmt}"
    data = path.read_bytes()
    if case == "lindblad_decomposition":
        data = _without_last_column(data.decode(), fmt)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_output_bytes_unchanged(tmp_path, case, fmt):
    assert output_digest(tmp_path, case, fmt) == DIGESTS[f"{case}.{fmt}"]
