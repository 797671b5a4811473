"""Output checks: each returns None when an op's answer is right, else why not.

A check sees the exit code and the captured stdout/stderr of one
`cointerval.cli.main` call, plus the expectations the corpus computed
before timing.  Every check reads the answer back by a route the timed
command did not take: golden bytes, the staircase f-vector, replayed
labelings, cells rebuilt by `build_complex`, or facts fixed when the
input was constructed.
"""

from __future__ import annotations


def _hypergraph(exp, mapping=None):
    from cointerval import Hypergraph

    vertices = range(1, exp["n"] + 1)
    edges = [tuple(e) for e in exp["edges"]]
    if mapping is not None:
        vertices = [mapping[v] for v in vertices]
        edges = [tuple(mapping[v] for v in e) for e in edges]
    return Hypergraph(exp["d"], vertices, edges)


def _field(lines, key):
    for line in lines:
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    return None


def _ints(text):
    return [int(t) for t in text.split()]


def _labeling(text, n):
    """Parse `(labeling: l_1 ... l_n)`, the new label of each vertex 1..n."""
    inner = text[text.index("(labeling:") + len("(labeling:"):].rstrip(")")
    labels = _ints(inner)
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError(f"labeling {labels} is not a permutation of 1..{n}")
    return dict(zip(range(1, n + 1), labels))


def check_golden(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if out != exp["stdout"]:
        return "stdout differs from the golden file"
    return None


def check_reject(exp, code, out, err):
    if code != exp["code"]:
        return f"exit {code}, expected {exp['code']}"
    if out:
        return "a rejected input printed a result"
    if not err.startswith("error:"):
        return "no error message on stderr"
    return None


def check_resolve(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    fvec = _ints(_field(lines, "f-vector") or "")
    if fvec != exp["f_vector"]:
        return f"f-vector {fvec} != staircase route {exp['f_vector']}"
    coarse = _ints(_field(lines, "betti (coarse)") or "")
    if coarse != fvec:
        return f"coarse Betti totals {coarse} != f-vector {fvec}"
    if sum((-1) ** i * f for i, f in enumerate(fvec)) != 1:
        return f"alternating sum of {fvec} is not 1"
    if not (_field(lines, "acyclic") or "").startswith("pass"):
        return "acyclicity check did not pass"
    if _field(lines, "minimal") != "yes":
        return "resolution reported non-minimal"
    return None


def check_verify(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    if _field(lines, "cells") != str(exp["cells"]):
        return f"cells {_field(lines, 'cells')} != {exp['cells']} written"
    if _field(lines, "result") != exp["result"]:
        return f"result {_field(lines, 'result')}, expected {exp['result']}"
    return None


def check_labeling_search(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    n = exp["n"]
    verdicts = {}
    for key, test in (
        ("cointerval", "is_cointerval"),
        ("strongly-stable", "is_strongly_stable"),
    ):
        text = _field(lines, key)
        if text is None:
            return f"no {key} line"
        if text.startswith("yes"):
            if "(labeling:" in text:
                try:
                    mapping = _labeling(text, n)
                except ValueError as exc:
                    return str(exc)
            else:
                mapping = None
            if not getattr(_hypergraph(exp, mapping), test)():
                return f"printed {key} labeling does not replay"
            verdicts[key] = True
        elif text.startswith("no"):
            verdicts[key] = False
        else:
            return f"unexpected {key} line {text!r}"
    for key, known in (("cointerval", exp["cointerval"]),
                       ("strongly-stable", exp["ss"])):
        if known is not None and verdicts[key] != known:
            return f"{key} verdict {verdicts[key]}, known {known}"
    return None


def _geometry_cells(text):
    """Polarized block tuples of the `faces:` section of a geometry file."""
    cells = set()
    in_faces = False
    for line in text.splitlines():
        if line == "faces:":
            in_faces = True
            continue
        if not in_faces:
            continue
        _dim, blocks, _ids = (p.strip() for p in line.split("|"))
        taus = [_ints(b) for b in blocks.split(";")]
        cells.add(tuple(tuple(a + k for a in t) for k, t in enumerate(taus)))
    return cells


def check_embed(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    with open(exp["out"], encoding="utf-8") as fh:
        got = _geometry_cells(fh.read())
    want = {tuple(tuple(b) for b in c) for c in exp["cells"]}
    if got != want:
        return (
            f"polarized cells differ from build_complex: "
            f"{len(got - want)} extra, {len(want - got)} missing"
        )
    dims = {}
    for c in want:
        dim = sum(len(b) - 1 for b in c)
        dims[dim] = dims.get(dim, 0) + 1
    fvec = [dims[k] for k in range(len(dims))]
    if _ints(_field(out.splitlines(), "f-vector") or "") != fvec:
        return "summary f-vector differs from build_complex"
    return None


def check_betti_all(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if out.splitlines()[-1:] != ["AGREE"]:
        return "the three Betti routes do not AGREE"
    return None


def check_decompose(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    width = int(_field(lines, "width") or -1)
    if width < exp["min_width"]:
        return f"width {width} below the known lower bound {exp['min_width']}"
    n = exp["n"]
    covered = set()
    parts = 0
    for i, line in enumerate(lines):
        if not line.startswith("part "):
            continue
        parts += 1
        edges = {
            tuple(_ints(chunk.strip("() ")))
            for chunk in line.split(":", 1)[1].split(")")
            if chunk.strip("() ")
        }
        covered |= edges
        labels = _ints(lines[i + 1].split(":", 1)[1])
        mapping = dict(zip(range(1, n + 1), labels))
        part = {"d": exp["d"], "n": n, "edges": sorted(edges)}
        if not _hypergraph(part, mapping).is_cointerval():
            return f"part {parts} labeling does not replay"
    if parts != width:
        return f"{parts} parts printed for width {width}"
    if covered != {tuple(e) for e in exp["edges"]}:
        return "parts do not cover the edge set exactly"
    if not (_field(lines, "acyclic") or "").startswith("pass"):
        return "glued resolution did not verify"
    return None


def check_casestudy(exp, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    counts = _ints(_field(lines, "counts") or "")
    if counts != exp["counts"]:
        return f"counts {counts} != {exp['counts']}"
    rows = sum(1 for line in lines if line[:1].isdigit())
    orbits = int(_field(lines, "orbit-count") or -1)
    if not orbits == rows == counts[0]:
        return f"orbit count {orbits}, {rows} class rows, {counts[0]} classes"
    return None


CHECKS = {
    "golden": check_golden,
    "reject": check_reject,
    "resolve": check_resolve,
    "verify": check_verify,
    "check": check_labeling_search,
    "embed": check_embed,
    "betti": check_betti_all,
    "decompose": check_decompose,
    "casestudy": check_casestudy,
}


def check(op, code, out, err):
    """None if the op's output is right, else a one-line reason."""
    try:
        return CHECKS[op["kind"]](op["expect"], code, out, err)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
