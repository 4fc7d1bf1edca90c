"""Split multi-atom rule bodies into one rule per body atom.

Recurrence constrains each head/body-atom pair separately, so a program and
its split form admit exactly the same certificates.  The constraint is copied
verbatim into every child rule even when it mentions variables of the dropped
atoms; those variables simply become existential in the child.
"""

from __future__ import annotations

from .model import Program, Rule


def binarize(program: Program) -> Program:
    """Return an equivalent program in which every rule has at most one body
    atom: a binary program itself; otherwise each multi-atom rule ``id`` is
    split into children ``<id>.<k>`` that carry ``origin = (id, k)``."""
    if program.is_binary():
        return program
    rules: list[Rule] = []
    for rule in program.rules:
        if len(rule.body) <= 1:
            rules.append(rule)
            continue
        for k, atom in enumerate(rule.body, start=1):
            rules.append(
                Rule(
                    f"{rule.rule_id}.{k}",
                    rule.head,
                    rule.rows,
                    (atom,),
                    origin=(rule.rule_id, k),
                )
            )
    # the children of a flat rule are flat, and their atoms name the
    # predicates in the order the rule's did
    return Program.trusted(tuple(rules), program.pool, program.arities)
