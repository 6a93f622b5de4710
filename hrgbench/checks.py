"""Correctness gate of the benchmark, run outside the timed phase.

Two kinds of check, both written without ``hrg``:

* digests: SHA-256 of the edge TSV, the coordinate TSV, the report JSON and
  each sweep CSV row without its ``*_ms`` columns, compared with the
  digests recorded in ``references.json`` for the default seed (the sweep
  is the same for every seed, so its rows are always compared);
* independent checks that hold for any seed: file structure, the edge set
  of sampled nodes recomputed from the coordinates, and the report's
  components, degrees, giant diameter bounds and core clique recomputed
  with scipy.

Every mismatch fails the operation (graph, report, sweep cell or verify
check) it belongs to.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1

# Nodes whose full neighbourhood is recomputed from the coordinates: the
# innermost ones (the hubs) plus a seeded random sample.
SAMPLED_HUBS = 8
SAMPLED_RANDOM = 24
# Pairs this close to the threshold, relative to cosh R, may go either way
# under rounding; everything else must match exactly.
THRESHOLD_REL_TOL = 1e-9


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sweep_row_digests(text: str) -> dict[str, str]:
    """Digest per sweep CSV row, keyed "n,seed", with the ``*_ms`` columns
    (wall-clock timings) left out."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    keep = [k for k, name in enumerate(header) if not name.endswith("_ms")]
    out = {"header": hashlib.sha256(",".join(header[k] for k in keep).encode()).hexdigest()}
    for row in rows[1:]:
        out[f"{row[0]},{row[1]}"] = hashlib.sha256(",".join(row[k] for k in keep).encode()).hexdigest()
    return out


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_for(references: dict, size: str, workload: str, seed: int):
    """Recorded digests for this run, or None when none were recorded."""
    entry = references.get(size, {}).get(workload)
    if entry is None:
        return None
    if workload == "sweep":
        return entry
    return entry.get(str(seed))


# ---------------------------------------------------------------- files


def load_coords(path: Path, n: int, seed: int, alpha: float, c_param: float):
    """Parse and check a coordinate TSV; returns (R, r, phi)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
    fields = dict(tok.partition("=")[::2] for tok in header[3:])
    R = 2.0 * math.log(n) + c_param
    expect = {"n": str(n), "alpha": repr(alpha), "C": repr(c_param), "seed": str(seed), "mode": "fixed"}
    if header[:3] != ["#", "hrg", "v1"] or any(fields.get(k) != v for k, v in expect.items()):
        raise AssertionError(f"coordinate header {' '.join(header)!r} does not match {expect}")
    if not math.isclose(float(fields["R"]), R, rel_tol=0.0, abs_tol=1e-9):
        raise AssertionError(f"header R={fields['R']} is not 2 ln n + C = {R}")
    data = np.loadtxt(path, comments="#", delimiter="\t", ndmin=2)
    if data.shape != (n, 3) or not np.array_equal(data[:, 0], np.arange(n)):
        raise AssertionError(f"expected ids 0..{n - 1} in order, got shape {data.shape}")
    r, phi = data[:, 1], data[:, 2]
    if r.min() < 0.0 or r.max() > R or phi.min() < 0.0 or phi.max() >= 2.0 * math.pi:
        raise AssertionError("coordinate outside r in [0, R], phi in [0, 2 pi)")
    return R, r, phi


def load_edges(path: Path, n: int) -> np.ndarray:
    """Parse and check an edge TSV: u < v < n, rows strictly sorted."""
    edges = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2).reshape(-1, 2)
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        if u.min() < 0 or v.max() >= n or np.any(u >= v):
            raise AssertionError("edge rows must satisfy 0 <= u < v < n")
        if np.any(np.diff(u * n + v) <= 0):
            raise AssertionError("edge rows are not strictly sorted")
    return edges


def _csr(edges: np.ndarray, n: int):
    src = np.concatenate((edges[:, 0], edges[:, 1]))
    dst = np.concatenate((edges[:, 1], edges[:, 0]))
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def check_sampled_neighbourhoods(R, r, phi, edges, seed: int) -> None:
    """Recompute the neighbourhoods of sampled nodes from the coordinates.

    Uses the cancellation-free form cosh d = cosh(r1 - r2)
    + 2 sin^2(dphi / 2) sinh r1 sinh r2 and compares on the cosh scale.
    """
    n = r.size
    indptr, indices = _csr(edges, n)
    rng = np.random.default_rng(seed)
    nodes = np.unique(np.concatenate((np.argsort(r, kind="stable")[:SAMPLED_HUBS], rng.integers(0, n, SAMPLED_RANDOM))))
    cosh_R = math.cosh(R)
    sinh_r = np.sinh(r)
    for u in nodes:
        half = np.sin((phi - phi[u]) / 2.0)
        cosh_d = np.cosh(r - r[u]) + 2.0 * half * half * sinh_r * sinh_r[u]
        near = np.abs(cosh_d - cosh_R) <= THRESHOLD_REL_TOL * cosh_R
        expected = cosh_d <= cosh_R
        expected[u] = False
        listed = np.zeros(n, dtype=bool)
        listed[indices[indptr[u] : indptr[u + 1]]] = True
        wrong = np.count_nonzero((expected != listed) & ~near)
        if wrong:
            raise AssertionError(f"node {u}: {wrong} neighbours differ from the coordinates")


def check_generate_files(work: Path, n: int, seed: int, alpha: float, c_param: float) -> None:
    R, r, phi = load_coords(work / "coords.tsv", n, seed, alpha, c_param)
    edges = load_edges(work / "edges.tsv", n)
    check_sampled_neighbourhoods(R, r, phi, edges, seed)


def check_report(work: Path, n: int, seed: int, alpha: float, c_param: float) -> None:
    """Recompute the report's graph facts from its input files."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, shortest_path

    R, r, phi = load_coords(work / "in_coords.tsv", n, seed, alpha, c_param)
    edges = load_edges(work / "in_edges.tsv", n)
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    m = edges.shape[0]
    indptr, indices = _csr(edges, n)
    degrees = np.diff(indptr)
    mat = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n))
    count, labels = connected_components(mat, directed=False)
    sizes = sorted(np.bincount(labels).tolist(), reverse=True)
    comps = report["components"]
    expect = {
        ("schema",): 1,
        ("model", "n"): n,
        ("model", "seed"): seed,
        ("model", "points"): n,
        ("graph", "m"): m,
        ("graph", "mean_degree"): 2.0 * m / n,
        ("components", "count"): count,
        ("components", "sizes"): sizes,
        ("components", "giant_size"): sizes[0],
        ("components", "second_size"): sizes[1] if count > 1 else 0,
        ("degrees", "histogram"): np.bincount(degrees).tolist(),
        ("checks", "core_size"): int(np.count_nonzero(r <= R / 2.0)),
        ("checks", "core_clique"): True,
    }
    for keys, want in expect.items():
        got = report
        for k in keys:
            got = got[k]
        if got != want:
            raise AssertionError(f"report {'.'.join(keys)} = {got!r}, recomputed {want!r}")
    core = np.nonzero(r <= R / 2.0)[0]
    core_edges = np.count_nonzero(np.isin(edges[:, 0], core) & np.isin(edges[:, 1], core))
    if core_edges != core.size * (core.size - 1) // 2:
        raise AssertionError(f"core of {core.size} nodes has {core_edges} internal edges, not a clique")
    # Double sweep: the giant's diameter D satisfies ecc(a) <= ecc(b) <= D <= 2 ecc(a).
    giant_nodes = np.nonzero(labels == np.argmax(np.bincount(labels)))[0]
    a = int(giant_nodes[np.argmax(degrees[giant_nodes])])
    dist_a = shortest_path(mat, unweighted=True, directed=False, indices=a)
    ecc_a = int(dist_a[giant_nodes].max())
    b = int(giant_nodes[np.argmax(dist_a[giant_nodes])])
    ecc_b = int(shortest_path(mat, unweighted=True, directed=False, indices=b)[giant_nodes].max())
    dia = comps["giant_diameter"]
    if not (ecc_b <= dia <= 2 * ecc_a):
        raise AssertionError(f"giant diameter {dia} outside double-sweep bounds [{ecc_b}, {2 * ecc_a}]")


# ---------------------------------------------------------------- gate


def evaluate(workload: str, summaries: list[dict], work: Path, seed: int, sizes: dict,
             alpha: float, c_param: float, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of a run.

    ``summaries`` holds one entry per operation, in run order; the output
    files in ``work`` are those of the last one. ``reference`` is the
    recorded digest entry for this run, or None.
    """
    problems: list[str] = []
    if workload in ("generate", "analyze"):
        keys = ("coords", "edges") if workload == "generate" else ("coords", "edges", "report")
        last = summaries[-1]
        try:
            if workload == "generate":
                check_generate_files(work, sizes["generate_n"], seed, alpha, c_param)
            else:
                check_report(work, sizes["analyze_n"], seed, alpha, c_param)
            files_ok = True
        except (AssertionError, OSError, ValueError, KeyError) as exc:
            problems.append(f"{workload}: {exc}")
            files_ok = False
        failed = 0
        for k, s in enumerate(summaries):
            bad = [f"exit code {s['rc']}"] if s["rc"] != 0 else []
            bad += [f"{key} differs from the last operation's" for key in keys if s[key] != last[key]]
            if reference is not None:
                bad += [f"{key} digest differs from the reference" for key in keys if s[key] != reference[key]]
            problems += [f"{workload} op {k}: {b}" for b in bad]
            failed += bool(bad) or not files_ok
        return len(summaries), failed, problems
    if workload == "sweep":
        attempted = failed = 0
        for k, s in enumerate(summaries):
            if reference is not None and s["rows"].get("header") != reference.get("header"):
                problems.append(f"sweep op {k}: CSV header differs from the reference")
            for cell in s["cells"]:
                attempted += 1
                bad = []
                if cell["failed"]:
                    bad.append(f"failed: {cell['error']}")
                if cell["underpass_violations"]:
                    bad.append(f"{cell['underpass_violations']} underpass violations")
                if not cell["core_clique"]:
                    bad.append("core is not a clique")
                if reference is not None and s["rows"].get(cell["key"]) != reference.get(cell["key"]):
                    bad.append("row differs from the reference")
                problems += [f"sweep op {k} cell {cell['key']}: {b}" for b in bad]
                failed += bool(bad)
            if len(s["cells"]) != len(s["rows"]) - 1:
                problems.append(f"sweep op {k}: {len(s['cells'])} records but {len(s['rows']) - 1} CSV rows")
                failed += 1
        return attempted, failed, problems
    if workload == "verify":
        attempted = failed = 0
        for k, s in enumerate(summaries):
            for check in s["checks"]:
                attempted += 1
                if not check["passed"]:
                    failed += 1
                    problems.append(f"verify op {k}: {check['name']} failed: {check['detail']}")
        return attempted, failed, problems
    raise ValueError(f"unknown workload {workload!r}")
