"""simax: distribution-sensitive planar maxima with verifiable certificates.

Two certified baselines (quadratic oracle, sort + sweep) plus a trainable
two-phase engine: a training phase learns where each input position tends to
land and compiles per-position search trees; the limiting phase then finds
the maxima of fresh inputs from the same distribution in near
entropy-optimal time, emitting the same certificate format as the baselines.
"""

from .distributions import (
    ScenarioError,
    ScenarioSpec,
    SeededRng,
    build_scenario,
    dumps_scenario,
    load_scenario_file,
    loads_scenario,
    sample_input,
    scenario_from_dict,
    scenario_to_dict,
)
from .engine import (
    RunStats,
    entropy_proxy,
    run_maxima,
)
from .geometry import (
    BaselineStats,
    Certificate,
    CertificateIndexError,
    InputSet,
    Point,
    brute_force_maxima,
    check_certificate,
    dominates,
    sort_scan_maxima,
    verify_certificate,
)
from .learning import (
    FrequencyTable,
    SearchForest,
    SlabStructure,
    TrainedModel,
    TrainingConfig,
    audit_forest,
    build_search_tree,
    build_slab_structure,
    collect_frequencies,
    load_model,
    save_model,
    simulate_restricted_search,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineStats",
    "Certificate",
    "CertificateIndexError",
    "FrequencyTable",
    "InputSet",
    "Point",
    "RunStats",
    "ScenarioError",
    "ScenarioSpec",
    "SearchForest",
    "SeededRng",
    "SlabStructure",
    "TrainedModel",
    "TrainingConfig",
    "audit_forest",
    "brute_force_maxima",
    "build_scenario",
    "build_search_tree",
    "build_slab_structure",
    "check_certificate",
    "collect_frequencies",
    "dominates",
    "dumps_scenario",
    "entropy_proxy",
    "load_model",
    "load_scenario_file",
    "loads_scenario",
    "run_maxima",
    "sample_input",
    "save_model",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate_restricted_search",
    "sort_scan_maxima",
    "train_model",
    "verify_certificate",
]
