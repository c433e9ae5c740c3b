"""mixsep: joint speaker diarization and source separation of meetings.

An integrated von-Mises-Fisher / complex Angular Central Gaussian mixture
model fitted with EM, per-segment speaker counting by component fusion, and
cross-segment speaker alignment by merging prototypes under a cannot-link rule.
"""

from .cacg import StftTensor
from .errors import ConfigurationError, InvalidInputError, MixsepError, NumericalError
from .frontend import AudioBuffer, SegmentSpec
from .integrated import FusionEvent, JointEmConfig, JointModel, joint_em
from .pipeline import Diarization, SegmentResult, run_meeting
from .synth import ScenarioConfig, SegmentPlan, build_meeting, sample_vmf
from .vmf import EmbeddingSequence, VmfMixture, vmfmm_em

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "ConfigurationError",
    "Diarization",
    "EmbeddingSequence",
    "FusionEvent",
    "InvalidInputError",
    "JointEmConfig",
    "JointModel",
    "MixsepError",
    "NumericalError",
    "ScenarioConfig",
    "SegmentPlan",
    "SegmentResult",
    "SegmentSpec",
    "StftTensor",
    "VmfMixture",
    "build_meeting",
    "joint_em",
    "run_meeting",
    "sample_vmf",
    "vmfmm_em",
]
