"""The Evidence bundle: everything a recommender may consult, in one place.

A recommender sees one ROI's worth of evidence: the dynamic side (the
ROI's PSEC, the ASMT) and the static side (the enclosing function, the
ROI region, loops, dominators, the call graph) — the latter fetched
through a shared :class:`~repro.passes.manager.AnalysisManager`, so ten
recommenders over five ROIs compute each analysis once, exactly like the
pass pipeline does.

On top of the raw facts, the bundle exposes the role-classification
layer (:mod:`repro.recommend.roles`): per-variable roles and
container-level summaries, computed lazily and cached per ROI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.passes.manager import AnalysisManager


@dataclass
class Evidence:
    """One ROI's evidence bundle.

    ``runtime`` duck-types ``CarmotRuntime`` — a live runtime on a cache
    miss, a deserialized :class:`~repro.runtime.psec_json.Profile` on a
    hit; both expose ``psecs``/``asmt``/``module``.
    """

    module: object
    roi: object
    psec: object
    asmt: object
    am: AnalysisManager
    _roles: Optional[List[object]] = field(default=None, repr=False)
    _containers: Optional[List[object]] = field(default=None, repr=False)

    @classmethod
    def gather(cls, runtime, roi_id: int,
               am: Optional[AnalysisManager] = None) -> "Evidence":
        """Build the bundle for one profiled ROI.

        Pass a shared ``am`` when generating for several ROIs of one
        module so module-scoped analyses are computed once.
        """
        module = runtime.module
        roi = module.rois[roi_id]
        return cls(
            module=module,
            roi=roi,
            psec=runtime.psecs[roi_id],
            asmt=runtime.asmt,
            am=am if am is not None else AnalysisManager(module),
        )

    # -- static facts (via the AnalysisManager) -----------------------------

    @property
    def function(self):
        """The enclosing function, or None for a detached profile."""
        return self.module.functions.get(self.roi.function)

    @property
    def region(self):
        """The ROI's static :class:`~repro.analysis.regions.RoiRegion`."""
        return self.am.get("roi-regions").get(self.roi.roi_id)

    @property
    def loops(self):
        """Natural loops of the enclosing function (innermost-last)."""
        function = self.function
        if function is None:
            return []
        return self.am.get("loops", function)

    @property
    def dominators(self):
        function = self.function
        if function is None:
            return None
        return self.am.get("dominators", function)

    @property
    def callgraph(self):
        return self.am.get("callgraph")

    @property
    def read_after(self):
        """uids of locals/params that may be read after the region."""
        function, region = self.function, self.region
        if function is None or region is None:
            return set()
        return self.am.get("liveness", function, region)

    # -- role evidence (lazily classified, cached) --------------------------

    @property
    def roles(self) -> List[object]:
        """Per-variable :class:`~repro.recommend.roles.RoleInfo`, sorted
        by variable name."""
        if self._roles is None:
            from repro.recommend.roles import classify_roles
            self._roles = classify_roles(self)
        return self._roles

    @property
    def containers(self) -> List[object]:
        """Container-level :class:`~repro.recommend.roles.
        ContainerSummary`, one per object with memory PSEs."""
        if self._containers is None:
            from repro.recommend.roles import summarize_containers
            self._containers = summarize_containers(self)
        return self._containers
