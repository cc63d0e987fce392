"""From-scratch clustering substrate: k-means with k-means++ seeding."""

from .kmeans import KMeans, kmeans_plus_plus_init

__all__ = [
    "KMeans",
    "kmeans_plus_plus_init",
]
