"""Built-in workloads used by the paper's evaluation."""

from repro._lazy import lazy_exports

# Bound eagerly: these builders share their names with the submodules
# that define them, which any import of such a module would otherwise
# bind here in their place.  All three modules are pure Python.
from repro.workloads.alexnet import alexnet
from repro.workloads.resnet50 import resnet50
from repro.workloads.vgg16 import vgg16

__all__ = [
    "resnet50",
    "fig10_resnet_layers",
    "PAPER_CBA3_LAYER",
    "language_models",
    "language_layer",
    "TABLE_IV_DIMS",
    "PAPER_TF0_LAYER",
    "alexnet",
    "bert_encoder",
    "mobilenet_v1",
    "vgg16",
    "available_workloads",
    "get_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.resnet50": ("fig10_resnet_layers", "PAPER_CBA3_LAYER"),
    "repro.workloads.language": (
        "language_models", "language_layer", "TABLE_IV_DIMS", "PAPER_TF0_LAYER",
    ),
    "repro.workloads.bert": ("bert_encoder",),
    "repro.workloads.mobilenet": ("mobilenet_v1",),
    "repro.workloads.registry": ("available_workloads", "get_workload"),
})
