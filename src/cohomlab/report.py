"""Report assembly and rendering.

make_report turns a BuildResult into a plain JSON-able dict: the input
hash, every dimension table, inequality slacks, verdicts, optional
spectral pages, geometry sections, and warnings.  No timestamps, no
environment data; identical input gives an identical dict, so the
canonical JSON form is byte-stable.

render_markdown and render_csv derive text from that dict.  Every
markdown table comes from one writer, _md_table: degrees down the rows,
one column per cohomology flavor, so two reports diff cleanly.  Keys
sort by _sort_key, which parses each key label once per process.
"""

from __future__ import annotations

import functools
import hashlib

from .cohomology import BIGRADED_FLAVORS, VAROUCHAS, Analysis, PairAnalysis, frolicher_report
from .geometry import hard_lefschetz, primitive_and_lefschetz_decomposition, type_n_view
from .io import canonical_json
from .spectral import doub_degeneration_check, pages

__all__ = ["input_echo", "make_report", "render_markdown", "render_csv", "render"]

VIEWS = ("bigraded", "total", "type-n")


def input_echo(raw):
    """Hash record for the raw input (a dict, or {"builtin": name})."""
    blob = canonical_json(raw).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest()}


def _key_str(k):
    # every tuple key in a report is a bidegree (p, q)
    return "%s,%s" % k if isinstance(k, tuple) else str(k)


def _table_json(t):
    return {_key_str(k): v for k, v in t.items()}


def _nested_json(t):
    return {_key_str(k): _table_json(v) if isinstance(v, dict) else v
            for k, v in t.items()}


def _cohom_section(rep):
    return {
        "tables": {f: _table_json(t) for f, t in rep.tables.items()},
        "varouchas": {v: _table_json(t) for v, t in rep.varouchas.items()},
        "induced": {
            "bigraded": _nested_json(rep.induced["bigraded"]),
            "total": _nested_json(rep.induced["total"]),
        },
        "verdicts": {
            k: (_table_json(v) if isinstance(v, dict) else v)
            for k, v in rep.verdicts.items()
        },
        "slack": {k: _table_json(v) for k, v in rep.slack.items()},
    }


def _spectral_section(a, r_max):
    out = {}
    for which in ("first", "second"):
        pgs = pages(a, which, r_max=r_max)
        out[which] = [
            {"r": pg.r, "dims": _table_json(pg.dims),
             "dr_ranks": _table_json(pg.dr_ranks)}
            for pg in pgs
        ]
    return out


def _totals_section(a):
    return {
        "sums": {f: _table_json(a.total_degree_sums(f))
                 for f in BIGRADED_FLAVORS},
        "TOT_PLUS": _table_json(a.total_table(1)),
        "TOT_MINUS": _table_json(a.total_table(-1)),
    }


def make_report(result, echo, view="bigraded", spectral_rmax=None):
    """BuildResult -> JSON-able report dict.

    view and spectral_rmax widen what is computed; everything else is
    always present for the kind at hand.
    """
    if view not in VIEWS:
        raise ValueError("unknown view %r" % (view,))
    doc = {
        "input": dict(echo, kind=result.kind),
        "view": view,
        "warnings": list(result.warnings),
    }

    if result.kind == "lie_algebra":
        if view == "type-n":
            raise ValueError("the type-n view needs a double complex")
        g = result.obj
        doc["betti"] = _table_json(g.cohomology())
        doc["lie"] = {
            "dim": result.lie.n,
            "nilpotent": result.lie.is_nilpotent(),
            "unimodular": result.lie.is_unimodular(),
        }
        return doc

    if result.kind in ("double_complex", "lie_complex"):
        a = Analysis(result.obj, validated=True)
        doc["cohomology"] = _cohom_section(frolicher_report(a))
        doc["totals"] = _totals_section(a)
        if view == "type-n":
            doc["type_n"] = {f: _table_json(t) for f, t in type_n_view(a).items()}
        if spectral_rmax is not None:
            doc["spectral"] = _spectral_section(a, spectral_rmax)
        return doc

    # bidiff_pair / lie_symplectic
    if view == "type-n":
        raise ValueError("the type-n view needs a double complex")
    a = PairAnalysis(result.obj, validated=True)
    doc["cohomology"] = _cohom_section(frolicher_report(a))
    doc["totals"] = _totals_section(a)
    try:
        deg = doub_degeneration_check(a)
        doc["degeneration"] = {
            "applicable": True,
            "first": deg["first"],
            "second": deg["second"],
            "per_degree": {
                w: _table_json(t) for w, t in deg["per_degree"].items()
            },
        }
    except ValueError as e:
        doc["degeneration"] = {"applicable": False, "reason": str(e)}
    if result.kind == "lie_symplectic":
        hl = hard_lefschetz(a, result.ops)
        prim = primitive_and_lefschetz_decomposition(a, result.ops)
        doc["symplectic"] = {
            "betti": _table_json(hl["betti"]),
            "hard_lefschetz": {
                "holds": hl["holds"],
                "iso": _table_json(hl["lefschetz_iso"]),
                "slack": _table_json(hl["slack"]),
            },
            "primitive": _table_json(prim["primitive"]),
            "lefschetz_parts": _nested_json(prim["per_degree"]),
            "decomposition_holds": prim["decomposition_holds"],
        }
    return doc


# ---------------------------------------------------------------------------
# rendering


@functools.cache
def _sort_key(s):
    """Numeric keys ("3", "1,-2") in order, then names; cached per label."""
    parts = s.split(",")
    try:
        return (0, tuple(int(x) for x in parts))
    except ValueError:
        return (1, tuple(parts))


def _md_table(title, tables, columns, label):
    """Titled table: a row per key of the columns' tables, 0 where one lacks it."""
    keys = sorted({k for f in columns for k in tables.get(f, {})}, key=_sort_key)
    lines = ["### " + title, "", "| " + " | ".join([label, *columns]) + " |",
             "|" + "---:|" * (len(columns) + 1)]
    for k in keys:
        row = [k] + [str(tables.get(f, {}).get(k, 0)) for f in columns]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def render_markdown(doc):
    out = ["# cohomlab report", ""]
    out.append("- kind: `%s`" % doc["input"]["kind"])
    out.append("- input sha256: `%s`" % doc["input"]["sha256"])
    out.append("- view: %s" % doc["view"])
    out.append("")

    if "betti" in doc:
        out += _md_table("invariant-model cohomology", {"H": doc["betti"]}, ("H",), "degree")
        lie = doc["lie"]
        out.append("- nilpotent: %s" % lie["nilpotent"])
        out.append("- unimodular: %s" % lie["unimodular"])
        out.append("")
    if "cohomology" in doc:
        c = doc["cohomology"]
        view = doc["view"]
        bigraded = doc["input"]["kind"] in ("double_complex", "lie_complex")
        cell_label = "p,q" if bigraded else "degree"
        if view == "type-n" and "type_n" in doc:
            out += _md_table("transverse-degree tables", doc["type_n"], BIGRADED_FLAVORS,
                             "p-q")
            out += _md_table("betti numbers", {"b": doc["totals"]["TOT_PLUS"]}, ("b",),
                             "degree")
        elif view == "total":
            t = dict(doc["totals"]["sums"])
            t["TOT+"] = doc["totals"]["TOT_PLUS"]
            t["TOT-"] = doc["totals"]["TOT_MINUS"]
            out += _md_table("total-degree tables", t, BIGRADED_FLAVORS + ("TOT+", "TOT-"),
                             "degree")
        else:
            out += _md_table("dimension tables", c["tables"], BIGRADED_FLAVORS, cell_label)
            out += _md_table("total cohomology", c["tables"], ("TOT_PLUS", "TOT_MINUS"),
                             "degree")
        out += _md_table("auxiliary quotients", c["varouchas"], VAROUCHAS, cell_label)
        out += _md_table("inequality slack", c["slack"], sorted(c["slack"]), "degree")
        out.append("### verdicts")
        out.append("")
        for k in sorted(c["verdicts"]):
            if k == "lemma_conditions":
                continue
            out.append("- %s: %s" % (k, c["verdicts"][k]))
        conds = c["verdicts"]["lemma_conditions"]
        out.append("- lemma conditions: "
                   + ", ".join("%s=%s" % (k, conds[k]) for k in sorted(conds)))
        out.append("")
    if "degeneration" in doc:
        out.append("### degeneration")
        out.append("")
        d = doc["degeneration"]
        if d["applicable"]:
            out.append("- first sequence degenerates: %s" % d["first"])
            out.append("- second sequence degenerates: %s" % d["second"])
        else:
            out.append("- not applicable: %s" % d["reason"])
        out.append("")
    if "symplectic" in doc:
        s = doc["symplectic"]
        out += _md_table("symplectic structure",
                         {"betti": s["betti"], "slack": s["hard_lefschetz"]["slack"],
                          "primitive": s["primitive"]},
                         ("betti", "slack", "primitive"), "degree")
        iso = s["hard_lefschetz"]["iso"]
        out.append("- L^k isomorphism: "
                   + ", ".join("k=%s %s" % (k, iso[k])
                               for k in sorted(iso, key=_sort_key)))
        out.append("- hard Lefschetz holds: %s" % s["hard_lefschetz"]["holds"])
        out.append("- Lefschetz decomposition holds: %s" % s["decomposition_holds"])
        out.append("")
    if "spectral" in doc:
        for which in ("first", "second"):
            for pg in doc["spectral"][which]:
                out += _md_table("%s sequence, page %d" % (which, pg["r"]),
                                 {"dim": pg["dims"], "d_r rank": pg["dr_ranks"]},
                                 ("dim", "d_r rank"), "cell")
    if doc["warnings"]:
        out.append("### warnings")
        out.append("")
        for w in doc["warnings"]:
            out.append("- " + w)
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _csv_walk(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj, key=_sort_key):
            _csv_walk(prefix + [k.replace(",", ";")], obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _csv_walk(prefix + [str(i)], v, rows)
    else:
        rows.append((".".join(prefix), obj))


def render_csv(doc):
    rows = []
    _csv_walk([], doc, rows)
    lines = ["path,value"]
    for path, v in rows:
        sv = "" if v is None else str(v)
        if "," in sv or '"' in sv:
            sv = '"' + sv.replace('"', '""') + '"'
        lines.append("%s,%s" % (path, sv))
    return "\n".join(lines) + "\n"


def render(doc, fmt):
    if fmt == "json":
        return canonical_json(doc) + "\n"
    if fmt == "md":
        return render_markdown(doc)
    if fmt == "csv":
        return render_csv(doc)
    raise ValueError("unknown format %r" % (fmt,))
