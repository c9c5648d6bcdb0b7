#!/usr/bin/env python3
"""List the exports of lib/ that only tests reach.

    python3 .github/reachability.py [--all]

Every top-level `val` of a `lib/*/*.mli` is an export.  An export is
reached when a `.ml` file under lib/, bin/, bench/, examples/ or perfbench/
names it:

    qualified    Sdf.Graph.actor, or Graph.actor where the file belongs to
                 the library `sdf` or opens `Sdf`
    alias        G.actor after `module G = Sdf.Graph`
    open         a bare `actor` in a file that opens `Sdf.Graph` (`open`,
                 `let open ... in` or a local `Graph.( ... )`)
    own module   a bare `actor` in lib/sdf/graph.ml other than where it is
                 defined

Comments and string literals are skipped.  Record fields and labels are not
told apart from values, so the scan errs towards "reached".

The unreached exports must each be on ALLOW below, with the reason that
keeps them; the script prints any that are not, and any ALLOW entry that
names an export that no longer exists or is now reached, and exits 1.
With --all it also prints the allowed ones.  Python 3, standard library
only.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]

ORACLE = "oracle or reference that tests compare production against"
HOOK = "hook that lets tests observe production state"
FIXTURE = "fixture other tests build on"
CODEC = "codec pinned by test/wire_frames.golden"
PROBE = "allocation-free entry the kernel allocation budget test measures"

# Unreached exports kept on purpose, as "Library.Module.name".
ALLOW = {
    # lib/check is the independent oracle; tests run these checks directly.
    "Check.Metamorphic.join_leave_roundtrip": ORACLE,
    "Check.Metamorphic.churn_order_independence": ORACLE,
    "Check.Metamorphic.margin_monotonicity": ORACLE,
    "Check.Oracle.margin_coverage": ORACLE,
    "Contention.Analysis.adjusted_graph": ORACLE,
    # `explore / improve scores as score` holds the prepared search to it.
    "Contention.Explore.score": ORACLE,
    # The period engine's counted work, pinned by `kernel / work: ...`.
    "Contention.Analysis.kernel_work": HOOK,
    "Cluster.Pool.reconnects": HOOK,
    "Cluster.Router.forward_counts": HOOK,
    "Desim.Heap.is_empty": HOOK,
    "Desim.Heap.peek_time": HOOK,
    "Desim.Trace.num_records": HOOK,
    "Desim.Trace.actor_stats": HOOK,
    "Obs.Clock.source": HOOK,
    "Obs.Span.enabled": HOOK,
    "Obs.Span.collect": HOOK,
    "Obs.Span.reset": HOOK,
    "Serve.Audit.drain": HOOK,
    "Serve.Server.shutdown_requested": HOOK,
    "Serve.Server.metrics_registry": HOOK,
    "Cluster.Ring.lookup": FIXTURE,
    "Cluster.Ring.peers": FIXTURE,
    "Cluster.Ring.remove": FIXTURE,
    "Contention.Mapping.dedicated": FIXTURE,
    "Contention.Mapping.balanced": FIXTURE,
    "Sdf.Graph.equal_structure": FIXTURE,
    "Repro_stats.Stats.minimum": FIXTURE,
    "Repro_stats.Stats.maximum": FIXTURE,
    "Repro_stats.Stats.acc_min": FIXTURE,
    "Contention.Explain.with_margins": CODEC,
    "Serve.Protocol.margin_to_json": CODEC,
    "Serve.Protocol.margin_of_json": CODEC,
    "Contention.Analysis.prepare_workload": PROBE,
    "Contention.Analysis.estimate_periods_into": PROBE,
}

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"


def strip(src):
    """The source with comments, strings and char literals blanked."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 40])
        if m:
            end = src.find("|" + m.group(1) + "}", i + len(m.group(0)))
            i = n if end < 0 else end + len(m.group(1)) + 2
            if not depth:
                out.append('""')
            continue
        m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'", src[i:i + 6])
        if m:
            i += len(m.group(0))
            if not depth:
                out.append("' '")
            continue
        if not depth:
            out.append(c)
        i += 1
    return "".join(out)


def libraries():
    """{library module name: (directory, {module name: [exports]})}."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(ROOT, "lib"))):
        path = os.path.join(ROOT, "lib", d)
        try:
            with open(os.path.join(path, "dune")) as f:
                name = re.search(r"\(name\s+([a-z_0-9]+)\)", f.read()).group(1)
        except OSError:
            continue
        mods = {}
        for f in sorted(os.listdir(path)):
            if f.endswith(".mli"):
                with open(os.path.join(path, f)) as h:
                    sig = strip(h.read())
                mods[f[:-4].capitalize()] = re.findall(
                    r"^val\s+(" + IDENT + r")\s*:", sig, re.M)
        libs[name.capitalize()] = (d, mods)
    return libs


def sources():
    for top in SOURCE_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def scope(rel, text, libs):
    """{qualifier: {(lib, module)}} and the set of opened (lib, module)s."""
    env = {}
    for lib, (d, mods) in libs.items():
        for m in mods:
            env.setdefault(lib + "." + m, set()).add((lib, m))
            if rel.startswith("lib/" + d + "/"):
                env.setdefault(m, set()).add((lib, m))
    opened_libs = set(re.findall(r"\bopen!?\s+([A-Z][A-Za-z0-9_']*)\b(?!\.)", text))
    for lib in opened_libs & set(libs):
        for m in libs[lib][1]:
            env.setdefault(m, set()).add((lib, m))
    for alias, target in re.findall(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + MODPATH + r")\b(?!\s*\()", text):
        if target in env:
            env.setdefault(alias, set()).update(env[target])
    opens = set()
    for target in re.findall(r"\bopen!?\s+(" + MODPATH + r")", text) + \
            re.findall(r"\b(" + MODPATH + r")\.\(", text):
        opens |= env.get(target, set())
    return env, opens


def reached(libs):
    hits = set()
    for path in sources():
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        with open(path) as f:
            text = strip(f.read())
        env, opens = scope(rel, text, libs)
        for q, name in re.findall(r"(?<![.\w])(" + MODPATH + r")\.(" + IDENT + r")", text):
            for lm in env.get(q, ()):
                hits.add(lm + (name,))
        own = {(lib, m) for lib, (d, mods) in libs.items() for m in mods
               if rel == "lib/%s/%s.ml" % (d, m.lower())}
        bare = None
        for lib, m in opens | own:
            if bare is None:
                bare = {}
                for mt in re.finditer(r"(?<![\w.~?'#`])(" + IDENT + r")\b", text):
                    bare.setdefault(mt.group(1), []).append(mt.start())
            for name in libs[lib][1][m]:
                uses = bare.get(name, [])
                if (lib, m) in own and (lib, m) not in opens:
                    defs = [mt.end(1) for mt in re.finditer(
                        r"\b(?:let|rec|and)\s+(" + re.escape(name) + r")\b", text)]
                    uses = [u for u in uses if u + len(name) not in defs]
                if uses:
                    hits.add((lib, m, name))
    return hits


def main():
    libs = libraries()
    hits = reached(libs)
    unreached = ["%s.%s.%s" % (lib, m, v)
                 for lib, (d, mods) in libs.items() for m, vals in mods.items()
                 for v in vals if (lib, m, v) not in hits]
    exported = {"%s.%s.%s" % (lib, m, v)
                for lib, (d, mods) in libs.items() for m, vals in mods.items() for v in vals}
    bad = [x for x in unreached if x not in ALLOW]
    stale = sorted(x for x in ALLOW if x not in unreached)
    if "--all" in sys.argv[1:]:
        for x in unreached:
            print("%-50s %s" % (x, ALLOW.get(x, "NOT ALLOWED")))
    for x in bad:
        print("unreached export, not on the allow-list: %s" % x)
    for x in stale:
        why = "reached" if x in exported else "not exported"
        print("allow-list entry %s is %s: drop it" % (x, why))
    print("%d exports, %d reached only from test/, %d allowed" %
          (len(exported), len(unreached), len(unreached) - len(bad)))
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
