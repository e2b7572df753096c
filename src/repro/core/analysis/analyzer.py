"""High-level call-site analyzer facade.

Wraps the classification and scenario-generation steps behind the interface
the controller and the benchmarks use: "analyze this binary against this
fault profile, tell me which sites are suspicious, give me the scenarios to
test them, and tell me how long the analysis took" (the paper reports 1-10
seconds per target, §7.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.analysis.cfg import DEFAULT_CFG_BUDGET
from repro.core.analysis.classifier import SiteClassification, classify_call_sites
from repro.core.analysis.scenario_gen import generate_injection_scenarios
from repro.core.profiler.fault_profile import FaultProfile
from repro.core.profiler.spec_profiles import combined_reference_profile
from repro.core.scenario.model import Scenario
from repro.isa.binary import BinaryImage, CallSite


@dataclass
class AnalysisReport:
    """Result of analysing one binary."""

    binary: str
    classifications: Dict[str, SiteClassification] = field(default_factory=dict)
    analysis_seconds: float = 0.0
    call_sites_analyzed: int = 0

    def classification(self, function: str) -> Optional[SiteClassification]:
        return self.classifications.get(function)

    def unchecked_sites(self) -> List:
        sites = []
        for classification in self.classifications.values():
            sites.extend(classification.unchecked)
        return sites

    def partially_checked_sites(self) -> List:
        sites = []
        for classification in self.classifications.values():
            sites.extend(classification.partially_checked)
        return sites

    def summary(self) -> str:
        lines = [
            f"call-site analysis of {self.binary}: {self.call_sites_analyzed} sites "
            f"in {self.analysis_seconds * 1000:.1f} ms"
        ]
        for classification in self.classifications.values():
            if classification.site_count():
                lines.append("  " + classification.summary())
        return "\n".join(lines)


class CallSiteAnalyzer:
    """Analyze a program binary against a fault profile."""

    def __init__(
        self,
        profile: Optional[FaultProfile] = None,
        max_instructions: int = DEFAULT_CFG_BUDGET,
    ) -> None:
        self.profile = profile if profile is not None else combined_reference_profile()
        self.max_instructions = max_instructions

    # ------------------------------------------------------------------
    def analyze(
        self, binary: BinaryImage, functions: Optional[Sequence[str]] = None
    ) -> AnalysisReport:
        """Classify every call site of the selected library functions."""
        start = time.perf_counter()
        report = AnalysisReport(binary=binary.name)
        # One scan of the image, grouped by callee (in address order), in
        # place of one full scan per analysed function.
        sites_by_callee: Dict[str, List[CallSite]] = {}
        for site in binary.call_sites():
            sites_by_callee.setdefault(site.callee, []).append(site)
        targets = list(functions) if functions is not None else sorted(sites_by_callee)
        for function in targets:
            function_profile = self.profile.function(function)
            if function_profile is None or not function_profile.error_returns:
                continue
            error_codes = function_profile.error_values()
            classification = classify_call_sites(
                binary,
                function,
                error_codes,
                max_instructions=self.max_instructions,
                sites=sites_by_callee.get(function, ()),
            )
            if classification.site_count():
                report.classifications[function] = classification
                report.call_sites_analyzed += classification.site_count()
        report.analysis_seconds = time.perf_counter() - start
        return report

    def generate_scenarios(
        self,
        report: AnalysisReport,
        include_partial: bool = True,
        include_checked: bool = False,
        every_errno: bool = False,
        functions: Optional[Iterable[str]] = None,
    ) -> List[Scenario]:
        """Emit injection scenarios for the suspicious sites in *report*."""
        selected = report.classifications
        if functions is not None:
            wanted = set(functions)
            selected = {
                name: classification
                for name, classification in selected.items()
                if name in wanted
            }
        return generate_injection_scenarios(
            selected.values(),
            self.profile,
            include_partial=include_partial,
            include_checked=include_checked,
            every_errno=every_errno,
        )


__all__ = ["AnalysisReport", "CallSiteAnalyzer"]
