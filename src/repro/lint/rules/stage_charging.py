"""stage-charging: costs are recorded as stages, not side-effect charges.

Since the stage-trace refactor (PR 1), the resource ledger is a
*derived view*: charged :class:`repro.sim.trace.Stage` entries fold
into the :class:`repro.sim.resources.ResourceModel` at exactly one
choke point (``Tracer.add``).  Direct ledger charging — or advancing
a :class:`VirtualClock` from a module that never touches the Tracer —
reintroduces costs the traces cannot see, silently breaking the
"ledger totals equal trace sums" invariant the runtime sanitizer
asserts.

The rule is flow-aware (:mod:`repro.lint.flow`): a receiver counts as
the ledger/clock when the analysis can prove it — by name convention,
by construction (``ResourceModel(...)``), or through any chain of
local/``self``-attribute aliases.  Call sites that *hand* the ledger
or clock to a helper whose summary charges/advances its parameter are
flagged too, including one import hop across the package.

Concretely, inside the simulator packages the rule flags:

- method calls ``<ledger>.host/pcie/channel/any_channel(...)``
  anywhere outside ``repro.sim.trace`` / ``repro.sim.resources``;
- method calls ``<clock>.advance(...)`` in modules that do not import
  ``repro.sim.trace`` (a module that records stages may also drive a
  clock; one that does neither is bypassing the Tracer);
- calls ``helper(ledger, ...)`` / ``helper(clock, ...)`` where
  ``helper``'s parameter is a charge/advance sink.
"""

from __future__ import annotations

import ast

from repro.lint import flow
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import SIM_PACKAGES, Rule, imports_module, register

#: Re-exported names kept for backward compatibility with PR 2 callers.
CHARGE_METHODS = flow.CHARGE_METHODS
LEDGER_NAMES = flow.LEDGER_NAMES
CLOCK_NAMES = flow.CLOCK_NAMES

#: The choke-point modules allowed to touch the ledger directly.
EXEMPT_SUFFIXES = ("repro/sim/trace.py", "repro/sim/resources.py", "repro/sim/clock.py")


def _describe(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


@register
class StageCharging(Rule):
    id = "stage-charging"
    description = (
        "charge costs by recording stages through the Tracer "
        "(tracer.host/pcie/channel), never by calling the ResourceModel "
        "or VirtualClock directly — even through aliases or helpers"
    )
    packages = SIM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if normalized.endswith(EXEMPT_SUFFIXES):
            return []
        routes_through_tracer = imports_module(ctx.tree, "repro.sim.trace")
        analysis = ctx.flow
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                method = node.func.attr
                kinds = analysis.kinds(receiver)
                if method in flow.CHARGE_METHODS and flow.LEDGER in kinds:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"direct ledger charge `{_describe(receiver)}.{method}()` "
                            "bypasses the Tracer choke point; record a Stage "
                            f"(tracer.{method}(...)) so latency/ledger/demand "
                            "stay one record",
                        )
                    )
                    continue
                if (
                    method in flow.ADVANCE_METHODS
                    and flow.CLOCK in kinds
                    and not routes_through_tracer
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{_describe(receiver)}.{method}()` advances the virtual "
                            "clock in a module that never records stages; route "
                            "the cost through the Tracer",
                        )
                    )
                    continue
            resolved = analysis.callee_summary(node)
            if resolved is None:
                continue
            summary, skip = resolved
            for arg, param in flow.map_call_args(node, summary, skip):
                tags = summary.sinks.get(param)
                if not tags:
                    continue
                arg_kinds = analysis.kinds(arg)
                if flow.SINK_CHARGE in tags and flow.LEDGER in arg_kinds:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{summary.name}()` charges its `{param}` parameter "
                            f"directly; passing the resource ledger "
                            f"(`{_describe(arg)}`) bypasses the Tracer choke point",
                        )
                    )
                    break
                if (
                    flow.SINK_ADVANCE in tags
                    and flow.CLOCK in arg_kinds
                    and not routes_through_tracer
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"`{summary.name}()` advances its `{param}` parameter; "
                            f"passing the virtual clock (`{_describe(arg)}`) from a "
                            "module that never records stages bypasses the Tracer",
                        )
                    )
                    break
        return findings


__all__ = ["CHARGE_METHODS", "CLOCK_NAMES", "EXEMPT_SUFFIXES", "LEDGER_NAMES", "StageCharging"]
