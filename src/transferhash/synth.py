"""Two-view synthetic datasets with shared latent cluster structure.

Both views are noisy random linear images of the same latent point, so
paired rows correlate across views and clusters survive in both; this is
what makes desk-scale transfer experiments meaningful.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

from .data import save_matrix
from .errors import check_count, check_weight

DEFAULT_CENTER_SPREAD = 4.0


def make_two_view_clusters(n_pairs: int, d_target: int, d_source: int,
                           clusters: int, noise: float, seed=0, *,
                           source_noise: float | None = None,
                           latent_dim: int | None = None,
                           center_spread: float = DEFAULT_CENTER_SPREAD):
    """Sample paired target/source views of clustered latent points.

    Returns (target, source, labels).  noise scales the additive Gaussian
    noise of the target view; source_noise defaults to the same value.
    """
    source_noise = noise if source_noise is None else source_noise
    for name, value in (("n_pairs", n_pairs), ("d_target", d_target),
                        ("d_source", d_source), ("clusters", clusters)):
        check_count(name, value, 1)
    check_count("seed", seed, 0)
    if latent_dim is None:
        latent_dim = min(d_target, d_source, 16)
    check_count("latent_dim", latent_dim, 1)
    check_weight("noise", noise)
    check_weight("source_noise", source_noise)
    if not (isinstance(center_spread, numbers.Real) and np.isfinite(center_spread)):
        raise ValueError(f"center_spread must be finite, got {center_spread!r}")

    rng = np.random.default_rng(seed)
    # a huge noise or center_spread overflows somewhere in here; the check
    # on the mean squares below catches every such case
    with np.errstate(over="ignore", invalid="ignore"):
        centers = center_spread * rng.standard_normal((clusters, latent_dim))
        labels = rng.integers(0, clusters, size=n_pairs)
        latent = centers[labels] + rng.standard_normal((n_pairs, latent_dim))
        map_t = rng.standard_normal((latent_dim, d_target)) / np.sqrt(latent_dim)
        map_s = rng.standard_normal((latent_dim, d_source)) / np.sqrt(latent_dim)
        target = latent @ map_t + noise * rng.standard_normal((n_pairs, d_target))
        source = latent @ map_s + source_noise * rng.standard_normal((n_pairs, d_source))
        mean_squares = (target ** 2).mean(), (source ** 2).mean()
    if not np.isfinite(mean_squares).all():
        raise ValueError("noise, source_noise or center_spread too large: a view overflows")
    # unit-RMS views keep entries near the +/-1 quantization targets, so
    # desk-scale hashing runs are well conditioned out of the box
    target /= np.sqrt(mean_squares[0])
    source /= np.sqrt(mean_squares[1])
    return target, source, labels


def write_synth_dataset(out_dir, n_pairs: int, d_target: int, d_source: int,
                        clusters: int, noise: float, seed=0, **kwargs) -> dict:
    """Generate and write target.bin / source.bin plus a manifest.

    Output bytes are a pure function of the parameters, so reruns with the
    same seed are byte-identical.
    """
    target, source, labels = make_two_view_clusters(
        n_pairs, d_target, d_source, clusters, noise, seed, **kwargs
    )
    os.makedirs(out_dir, exist_ok=True)
    target_path = os.path.join(out_dir, "target.bin")
    source_path = os.path.join(out_dir, "source.bin")
    labels_path = os.path.join(out_dir, "labels.csv")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    save_matrix(target, target_path, "thpi-bin")
    save_matrix(source, source_path, "thpi-bin")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")
    params = dict(n_pairs=n_pairs, d_target=d_target, d_source=d_source,
                  clusters=clusters, noise=noise, seed=seed, **kwargs)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for key in sorted(params):
            fh.write(f"{key}={params[key]!r}\n")
        fh.write("target=target.bin\n")
        fh.write("source=source.bin\n")
        fh.write("labels=labels.csv\n")
    return {"target": target_path, "source": source_path,
            "labels": labels_path, "manifest": manifest_path}
