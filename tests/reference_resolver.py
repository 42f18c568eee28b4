"""Reference resolution: the three-case rule and its iteration schedule as
one plain serial loop, with the case, the SEVERE loser, the PARTIAL
aggressor and the halving cap all decided inline.  The differential test in
test_resolver.py requires ``resolver.iterate`` to take the same actions,
re-profile the same layers in the same order and end with byte-equal deltas.
A SEVERE layer whose loser's layer delta is already all zero is kept, and a
pass that drops or re-prunes nothing is the last.

``reprofile(delta_a, delta_b, layers)`` returns the rows of a new profile of
``layers``; the reference never builds a context of its own.
"""

import numpy as np

import reference_delta


def _pending(rows, threshold):
    above = [(i, r) for i, r in enumerate(rows) if r.Gamma > threshold]
    above.sort(key=lambda item: (-item[1].Gamma, item[0]))
    return [r for _, r in above]


def _layer_names(delta, partition, layer):
    return [n for n in delta.names if partition.layer_of(n) == layer]


def _drop(delta, partition, layer):
    names = _layer_names(delta, partition, layer)
    return delta.replace({n: np.zeros_like(delta.array(n)) for n in names})


def _reprune(delta, partition, layer, p, s):
    pruned = reference_delta.prune_topp(delta, p, partition=partition, layers={layer})
    return reference_delta.scale(pruned, s, _layer_names(delta, partition, layer))


def iterate(rows, reprofile, partition, delta_a, delta_b, policy, params_a, params_b):
    """Returns (delta_a, delta_b, actions), each action a ``to_dict`` dict."""
    deltas = {"A": delta_a, "B": delta_b}
    params = {"A": params_a, "B": params_b}
    halvings = {}
    actions = []
    analyzed = [r.layer for r in rows]
    current = rows
    for pass_idx in range(policy.max_passes):
        if pass_idx > 0:
            current = reprofile(deltas["A"], deltas["B"], analyzed)
        pending = _pending(current, policy.gamma_threshold)
        if not pending:
            break
        changed = False
        while pending:
            row = pending.pop(0)
            ga, gb = row.gamma_a, row.gamma_b
            action = {
                "layer": row.layer, "gamma_a": ga, "gamma_b": gb, "Gamma": row.Gamma,
                "model": None, "p_layer": None, "s_layer": None, "note": "",
            }
            if ga > 0 and gb > 0:
                own_a, own_b = row.c["AA"], row.c["BB"]
                loser = "B" if own_a >= own_b else "A"
                names = _layer_names(deltas[loser], partition, row.layer)
                if all(not deltas[loser].array(n).any() for n in names):
                    note = f"layer delta of model {loser} is already zero"
                    action.update(kind="KEEP", case="SEVERE", note=note)
                else:
                    note = f"own contributions c_AA={own_a!r} c_BB={own_b!r}"
                    if own_a == own_b:
                        note += " (tie: kept A)"
                    deltas[loser] = _drop(deltas[loser], partition, row.layer)
                    action.update(kind="DROP", case="SEVERE", model=loser, note=note)
            elif min(ga, gb) < 0 < max(ga, gb):
                model = "A" if ga < 0 else "B"
                visits = halvings.get((row.layer, model), 0)
                if visits + 1 > policy.max_halvings:
                    note = f"halving cap ({policy.max_halvings}) reached for model {model}"
                    action.update(kind="KEEP", case="PARTIAL", note=note)
                else:
                    step = 1 if policy.single_halving else visits + 1
                    p = params[model].p / 2**step
                    s = params[model].s / 2**step
                    deltas[model] = _reprune(deltas[model], partition, row.layer, p, s)
                    halvings[(row.layer, model)] = visits + 1
                    action.update(kind="REPRUNE", case="PARTIAL", model=model, p_layer=p, s_layer=s)
            else:
                action.update(kind="KEEP", case="MUTUAL")
                if (ga == 0) != (gb == 0) and max(ga, gb) > 0:
                    action["note"] = "boundary: one conflict is exactly zero; kept without action"
            actions.append(action)
            if action["kind"] != "KEEP":
                changed = True
                if policy.recompute and pending:
                    fresh = reprofile(deltas["A"], deltas["B"], [r.layer for r in pending])
                    pending = _pending(fresh, policy.gamma_threshold)
        if not changed:
            break
    return deltas["A"], deltas["B"], actions
