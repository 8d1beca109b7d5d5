"""The library entry points the benchmark calls, one span name each.

Workloads call the library only through a ``Layers`` object.  Untraced, its
attributes are the library's own functions; traced, each is wrapped in a
span named after the layer (package module) it belongs to.  The workload
code is the same in both modes, so the difference between a traced and an
untraced run of the same inputs is the tracing overhead.
"""

from __future__ import annotations

import contextlib

from translucent import (beliefs, cli, closed_form, counterfactual,
                         equilibrium, games)

# attribute -> (span name, callable)
ENTRY_POINTS = {
    "make_dilemma": ("games.make_dilemma", games.make_dilemma),
    "two_point": ("games.two_point", games.MixedProfile.two_point),
    "verify_social_dilemma": ("games.verify_social_dilemma",
                              games.verify_social_dilemma),
    "CooperationScanner": ("beliefs.scanner_build", beliefs.CooperationScanner),
    "cooperation_condition": ("closed_form.cooperation_condition",
                              closed_form.cooperation_condition),
    "bertrand_undercut_condition": ("closed_form.undercut",
                                    closed_form.bertrand_undercut_condition),
    "make_coherence_checker": ("equilibrium.checker_build",
                               equilibrium.make_coherence_checker),
    "te_in_structure": ("equilibrium.te_in_structure",
                        equilibrium.te_in_structure),
    "te_condition": ("equilibrium.te_condition", equilibrium.te_condition),
    "te_condition_typed": ("equilibrium.te_condition_typed",
                           equilibrium.te_condition_typed),
    "build_coherent_structure": ("counterfactual.build_coherent",
                                 counterfactual.build_coherent_structure),
    "build_typed_dilemma_structure": ("counterfactual.build_typed",
                                      counterfactual.build_typed_dilemma_structure),
    "is_rational_at": ("counterfactual.is_rational_at",
                       counterfactual.is_rational_at),
    "validate_structure": ("counterfactual.validate",
                           counterfactual.validate_structure),
    "structure_to_json": ("counterfactual.to_json",
                          counterfactual.structure_to_json),
    "structure_from_json": ("counterfactual.from_json",
                            counterfactual.structure_from_json),
}

# Names the CLI module imports from the other layers.  The traced CLI run
# replaces them inside ``translucent.cli`` for the duration of an in-process
# ``cli.main`` call, which puts a span on every call the CLI makes into
# another layer without touching the library's code.
CLI_IMPORTS = {
    "make_dilemma": "games.make_dilemma",
    "cooperation_condition": "closed_form.cooperation_condition",
    "is_cooperation_rational": "beliefs.cooperation_rational",
    "is_coherent": "equilibrium.is_coherent",
    "te_condition": "equilibrium.te_condition",
    "te_condition_typed": "equilibrium.te_condition_typed",
    "structure_from_json": "counterfactual.from_json",
    "validate_structure": "counterfactual.validate",
    "logit_qre": "alt_models.logit_qre",
}


class Layers:
    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, (span, fn) in ENTRY_POINTS.items():
            setattr(self, attr, self.bind(span, fn))

    def bind(self, span: str, fn):
        """``fn`` itself when untraced, else ``fn`` inside a span."""
        return fn if self.tracer is None else self.tracer.wrap(span, fn)


@contextlib.contextmanager
def patched_cli(tracer):
    """Wrap the CLI's imported entry points in spans while the block runs."""
    saved = {name: getattr(cli, name) for name in CLI_IMPORTS}
    try:
        for name, span in CLI_IMPORTS.items():
            setattr(cli, name, tracer.wrap(span, saved[name]))
        yield cli
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
