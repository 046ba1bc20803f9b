"""Output bytes pinned by sha256 digest.

Each case runs one ``weakmeas`` command on a fixed config and compares the
sha256 of one output file with a digest recorded from the cell-by-cell
writers (``csv.writer`` over ``format_cell``; ``json.dumps``), so the
column writers' claim to write the same bytes is checked on every run. The
``lindblad_decomposition`` digests cover the x, joint and pw columns only:
its error column comes from a contraction whose rounding differs from the
dense products it replaced.

A digest that stops matching means the output bytes changed. If that is
intended, say which numbers moved and by how much before updating it.
"""

import hashlib
import json

import pytest

from weakmeas.cli import main

OBSERVABLE = [[1, 0], [0.5, -0.2], [0, 0], [0.5, 0.2], [-0.3, 0], [0, 0.7], [0, 0], [0, -0.7], [0.4, 0]]
OBSERVABLE_B = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [-1, 0]]
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
]

DIGESTS = {
    "simulate_single.csv": "022f322843824c6cafb7c74e2767fc0e089b3691a2108daa18df9e3d7f238eb9",
    "simulate_single.json": "a0bd7e22c29e76f59a646fb2d6c32262c367cda6c9bd13675b9f8b7accd3c9ff",
    "simulate_kick.csv": "9c4446f40987ef476d055c56c31237ceb09774983d2745830069ce24f3d3bdd4",
    "simulate_kick.json": "2a950191b480bc7adcfd8ebd1056c2fb1796f3b7f07222bd871f48576c41968f",
    "simulate_sequential.csv": "33740a868ab9c153f35c7dff4030669a833728cddcee5787bd65dc419b1b64ae",
    "simulate_sequential.json": "b6a8fc4f954ffa909770f032e04660e2c0a713661904ecde5fe3fc8e15b5786f",
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
