"""On-device learnable neural substrate: OS-ELM, forgetting, autoencoders."""

from .autoencoder import OSELMAutoencoder
from .ensemble import MultiInstanceModel
from .forgetting import ForgettingOSELM
from .oselm import OSELM
from .random_layer import ACTIVATIONS, RandomLayer

__all__ = [
    "RandomLayer",
    "ACTIVATIONS",
    "OSELM",
    "ForgettingOSELM",
    "OSELMAutoencoder",
    "MultiInstanceModel",
]
