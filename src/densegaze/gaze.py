"""Stage two: scale-normalize selected patches and run a detector over them.

Every patch is mapped onto one standard frame sized for the tiny scale,
so small objects keep native resolution while larger scales are recorded
at 1/2, 1/4, 1/8 zoom and each patch costs the same pixel budget. The
detector behind the stage is pluggable: oracle and noisy adapters answer
from ground truth for desk-scale verification, a costed wrapper meters
pixel spend, and an external-command adapter hands batches to a real
model through a JSON file exchange.

A detector answers each patch with a Detections batch in the patch's
frame, or a list of Detection rows. With one worker, detect runs on the
calling thread; with more, on a pool of worker threads, so adapters must
be safe to call concurrently. Results are always returned in input patch
order, so worker count never changes the output.
"""

from __future__ import annotations

import json
import math
import subprocess
import tempfile
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    Annotation, Annotations, Detections, PatchDetection, SceneExtent, clip_corners, detection_row, json_int, json_list,
)
from .saccade import DEFAULT_EXPANSION, Patch, patch_manifest


class AdapterError(Exception):
    """A detector adapter failed; carries the identity of the failing patch."""

    def __init__(self, message: str, patch: Patch | None = None):
        super().__init__(message)
        self.patch = patch


@dataclass(frozen=True)
class NormalizedPatch:
    """A patch plus its transform onto the standard detection frame.

    zoom is normalized pixels per original pixel; the patch content spans
    (content_width, content_height) inside the standard frame, and the
    frame is padded (as a record, no pixels exist here) to standard_size.
    """

    patch: Patch
    standard_size: tuple[int, int]
    zoom: float

    @property
    def content_width(self) -> float:
        return self.patch.region.width * self.zoom

    @property
    def content_height(self) -> float:
        return self.patch.region.height * self.zoom

    def to_frame(self, x: float, y: float) -> tuple[float, float]:
        """Map a global point into the normalized frame."""
        r = self.patch.region
        return ((x - r.x) * self.zoom, (y - r.y) * self.zoom)

    def to_scene(self, x: float, y: float) -> tuple[float, float]:
        """Map a normalized-frame point back to global coordinates."""
        r = self.patch.region
        return (x / self.zoom + r.x, y / self.zoom + r.y)


def default_standard_size(
    extent: SceneExtent,
    tiny_cells: tuple[int, int] = (16, 16),
    expansion: float = DEFAULT_EXPANSION,
) -> tuple[int, int]:
    """Standard frame for a scene: the expanded tiny cell, rounded to even."""

    def round_even(v: float) -> int:
        return max(2, int(round(v / 2.0)) * 2)

    return (
        round_even(extent.width / tiny_cells[0] * expansion),
        round_even(extent.height / tiny_cells[1] * expansion),
    )


def normalize(patch: Patch, standard_size: tuple[int, int]) -> NormalizedPatch:
    """Fit a patch onto the standard frame; zoom is uniform in x and y."""
    sw, sh = standard_size
    if sw <= 0 or sh <= 0:
        raise ValueError(f"standard size must be positive, got {standard_size}")
    return NormalizedPatch(patch=patch, standard_size=(sw, sh), zoom=sw / patch.region.width)


class DetectorAdapter(ABC):
    """Boundary for any megapixel-level detector.

    detect must be a pure function of the normalized patch and safe to
    call from several workers at once. It returns a Detections batch in
    the normalized frame, or a list of Detection objects held to its rules.
    """

    @abstractmethod
    def detect(self, np_patch: NormalizedPatch) -> Detections | list[PatchDetection]:
        raise NotImplementedError


class OracleDetector(DetectorAdapter):
    """Answers from ground truth: perfect boxes for test pipelines.

    Returns every annotation whose center lies inside the patch region
    (half-open, so a center on a shared edge belongs to one cell only), in
    annotation order, with both corners mapped through to_frame, the box
    clipped to the patch content by clip_corners, and scored 1.0.
    """

    def __init__(self, annotations: list[Annotation]):
        annotations = Annotations.of(annotations)
        self._boxes, self._categories = annotations.boxes, annotations.categories
        x, y, w, h = self._boxes.T
        self._centers = np.stack([x + w / 2.0, y + h / 2.0], axis=1)

    def _rows(self, np_patch: NormalizedPatch) -> tuple[np.ndarray, np.ndarray]:
        """The (k, 4) clipped frame boxes and categories detect answers with."""
        region = np_patch.patch.region
        cx, cy = self._centers.T
        rows = np.flatnonzero(
            (cx >= region.x) & (cx < region.right) & (cy >= region.y) & (cy < region.bottom)
        )
        x, y, w, h = self._boxes[rows].T
        boxes, keep = clip_corners(
            *np_patch.to_frame(x, y), *np_patch.to_frame(x + w, y + h),
            np_patch.content_width, np_patch.content_height,
        )
        return boxes, self._categories[rows[keep]]

    def detect(self, np_patch: NormalizedPatch) -> Detections:
        boxes, categories = self._rows(np_patch)
        return Detections(boxes, np.ones(len(boxes)), categories)


class NoisyDetector(DetectorAdapter):
    """Oracle output degraded with seeded jitter, misses, and false positives.

    Randomness is keyed on (seed, patch identity), so output is identical
    across runs and worker counts regardless of call order. The draw order
    is the adapter's contract: per oracle row, one uniform decides the
    miss; a kept row then takes four normals (dx, dy, dw, dh) when jitter
    > 0, and one uniform score when jitter or the miss rate is above 0.
    Last comes one Poisson count, with five uniforms per false positive
    (w, h, x, y, score). The per-row loop only draws; the boxes are column
    arithmetic, with max and min as np.where so ties and -0.0 match
    Python's. A jittered box keeps a positive size while its content is
    under 2**53 px a side, so a larger patch is refused; a false positive
    clipped to no size (content under 1 px) is dropped after its draws.
    """

    def __init__(
        self,
        annotations: list[Annotation],
        jitter: float = 0.0,
        miss_rate: float = 0.0,
        fp_rate: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        if not 0 <= fp_rate < math.inf:
            raise ValueError(f"fp_rate must be finite and >= 0, got {fp_rate}")
        if not 0 <= jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {jitter}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._oracle = OracleDetector(annotations)
        self.jitter = jitter
        self.miss_rate = miss_rate
        self.fp_rate = fp_rate
        self.seed = seed

    def detect(self, np_patch: NormalizedPatch) -> Detections:
        fw, fh = np_patch.content_width, np_patch.content_height
        if not (fw < 2.0**53 and fh < 2.0**53):
            raise ValueError(f"noisy detector needs patch content under 2**53 px a side, got {fw!r} x {fh!r}")
        p = np_patch.patch
        rng = np.random.default_rng([self.seed, int(p.scale), p.iy, p.ix])
        random, standard_normal = rng.random, rng.standard_normal
        jitter, miss_rate = self.jitter, self.miss_rate
        scored = jitter > 0 or miss_rate > 0
        boxes, categories = self._oracle._rows(np_patch)
        z = np.zeros((len(boxes), 4))
        kept, scores = [], []
        for row, z_row in enumerate(z):
            if random() < miss_rate:
                continue
            kept.append(row)
            if jitter > 0:
                standard_normal(out=z_row)
            if scored:
                scores.append(random())
        fp_draws = random(5 * int(rng.poisson(self.fp_rate))).reshape(-1, 5)

        def at_least(v, lo):  # max(v, lo)
            return np.where(lo > v, lo, v)

        def at_most(v, hi):  # min(v, hi)
            return np.where(hi < v, hi, v)

        # Columns are (x, y) and (w, h) pairs. numpy's formulas for
        # rng.normal(0.0, jitter) and rng.uniform(lo, hi), lo + (hi - lo) * u,
        # which is hi * u to the bit when lo is 0 and hi >= 1.
        frame, kept = np.array([fw, fh]), np.array(kept, np.intp)
        box, z = boxes[kept], 0.0 + jitter * z[kept]
        wh = at_least(box[:, 2:] + z[:, 2:], 1.0)
        xy = at_most(at_least(box[:, :2] + z[:, :2], 0.0), at_least(frame - wh, 0.0))
        fp_wh = 4.0 + (at_least(frame / 4.0, 8.0) - 4.0) * fp_draws[:, :2]
        xy = np.concatenate([xy, at_least(frame - fp_wh, 1.0) * fp_draws[:, 2:4]])
        wh = at_most(np.concatenate([wh, fp_wh]), frame - xy)
        score = 0.6 + (1.0 - 0.6) * np.array(scores) if scored else np.ones(len(kept))
        scores = np.concatenate([score, 0.05 + (0.6 - 0.05) * fp_draws[:, 4]])
        keep = (wh > 0).all(axis=1)  # only a false positive can clip to no size
        categories = np.concatenate([categories[kept], np.zeros(len(fp_draws), np.int64)])
        return Detections(np.concatenate([xy, wh], axis=1)[keep], scores[keep], categories[keep])


@dataclass
class PixelLedger:
    """Thread-safe tally of normalized-frame pixels submitted to a detector."""

    pixels: int = 0
    patches: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, pixels: int) -> None:
        with self._lock:
            self.pixels += pixels
            self.patches += 1


class CostedDetector(DetectorAdapter):
    """Wraps an adapter with a pixel ledger and optional proportional busy work.

    Every call charges the full padded frame (standard_size area) to the
    ledger, which is the deterministic stand-in for inference cost. With
    cost_per_pixel > 0, a numpy busy loop burns CPU proportional to the
    frame so wall-clock comparisons track the pixel budget.
    """

    _CHUNK = 1 << 15

    def __init__(self, inner: DetectorAdapter, cost_per_pixel: float = 0.0):
        if not 0 <= cost_per_pixel < math.inf:
            raise ValueError(f"cost_per_pixel must be finite and >= 0, got {cost_per_pixel}")
        self.inner = inner
        self.cost_per_pixel = cost_per_pixel
        self.ledger = PixelLedger()

    def detect(self, np_patch: NormalizedPatch) -> Detections | list[PatchDetection]:
        sw, sh = np_patch.standard_size
        pixels = sw * sh
        self.ledger.add(pixels)
        if self.cost_per_pixel > 0:
            self._burn(int(pixels * self.cost_per_pixel))
        return self.inner.detect(np_patch)

    def _burn(self, ops: int) -> None:
        buf = np.arange(1, self._CHUNK + 1, dtype=np.float64)
        while ops > 0:
            np.sqrt(buf[: min(ops, self._CHUNK)])
            ops -= self._CHUNK


@dataclass(frozen=True)
class GazeResult:
    """One patch's normalization record and its detections batch; a list
    of Detection objects given for it is converted once by Detections.of."""

    normalized: NormalizedPatch
    detections: Detections

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", Detections.of(self.detections))

    @property
    def patch(self) -> Patch:
        return self.normalized.patch


def run_gaze(
    patches: list[Patch],
    adapter: DetectorAdapter,
    standard_size: tuple[int, int],
    workers: int = 1,
) -> list[GazeResult]:
    """Normalize and detect every patch; results follow input patch order.

    An adapter with detect_batch answers all patches in one call; else
    detect runs on the calling thread at one worker, on a thread pool at
    more. Worker count affects scheduling only, never results. One loop
    turns every answer into a result: a failure, an answer that fails its
    checks included, raises AdapterError carrying the first failing patch
    in input order. A failing detect_batch call or a wrong answer count
    raises one without a patch.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    normalized = [normalize(p, standard_size) for p in patches]
    batch = getattr(adapter, "detect_batch", None)
    results: list[GazeResult] = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 and batch is None else nullcontext() as pool:
        if batch is None:
            answers = (pool.map if pool else map)(adapter.detect, normalized)
        else:
            try:
                answers = list(batch(normalized))
            except Exception as exc:
                raise AdapterError(f"detector failed on a batch of {len(normalized)} patches: {exc}") from exc
            if len(answers) != len(normalized):
                raise AdapterError(f"detector returned {len(answers)} results for {len(normalized)} patches")
            answers = iter(answers)
        for np_p in normalized:
            try:
                results.append(GazeResult(np_p, next(answers)))
            except Exception as exc:
                p = np_p.patch
                raise AdapterError(
                    f"detector failed on patch scale={p.scale.label} cell=({p.ix},{p.iy}): {exc}",
                    patch=p,
                ) from exc
    return results


# Seconds one external detector call may take before it is killed and the
# run fails with an AdapterError; a hung detector must not hang the pipeline.
EXEC_TIMEOUT_S = 600.0


class ExternalCommandDetector(DetectorAdapter):
    """File-exchange adapter for out-of-process detectors.

    For each batch it writes a patch manifest JSON, runs the configured
    command as `cmd <manifest.json> <detections_out.json>`, and reads the
    detections back; a command that runs longer than EXEC_TIMEOUT_S is
    killed. A manifest row is a patch_manifest row plus "patch_id", "zoom"
    and "standard_size"; the command writes a JSON list of detection rows
    plus "patch_id" (boxes in the normalized frame), held to
    core.detection_row's rules but the size rule: a box the content clip
    leaves with no positive size drops; each patch keeps the rest in order.
    """

    def __init__(self, command: list[str]):
        if not command:
            raise ValueError("external detector command must not be empty")
        self.command = list(command)

    def detect(self, np_patch: NormalizedPatch) -> Detections:
        return self.detect_batch([np_patch])[0]

    def detect_batch(self, normalized: list[NormalizedPatch]) -> list[Detections]:
        if not normalized:
            return []
        manifest = [
            {"patch_id": i, **row, "zoom": np_p.zoom, "standard_size": list(np_p.standard_size)}
            for i, (np_p, row) in enumerate(zip(normalized, patch_manifest([n.patch for n in normalized])))
        ]
        with tempfile.TemporaryDirectory(prefix="densegaze-exec-") as tmp:
            manifest_path = Path(tmp) / "patches.json"
            out_path = Path(tmp) / "detections.json"
            manifest_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
            try:
                proc = subprocess.run(
                    self.command + [str(manifest_path), str(out_path)],
                    capture_output=True,
                    text=True,
                    timeout=EXEC_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:
                raise AdapterError(f"external detector timed out after {EXEC_TIMEOUT_S:g} s") from exc
            if proc.returncode != 0:
                raise AdapterError(
                    f"external detector exited {proc.returncode}: {proc.stderr.strip()}"
                )
            if not out_path.exists():
                raise AdapterError("external detector wrote no detections file")
            try:
                rows = json_list(json.loads(out_path.read_text(encoding="utf-8")), "external detector output")
            except json.JSONDecodeError as exc:
                raise AdapterError(f"external detector wrote invalid JSON: {exc}") from exc
            except ValueError as exc:
                raise AdapterError(str(exc)) from exc

        pids = []  # per row, in row order
        for index, row in enumerate(rows):
            try:
                pid = json_int(row["patch_id"], "patch_id")
                detection_row(row["bbox"], row["score"], row.get("category", 0), sized=False)
            except (KeyError, TypeError, ValueError) as exc:
                raise AdapterError(f"malformed detection row {index} {row!r}: {exc}") from exc
            if not 0 <= pid < len(normalized):
                raise AdapterError(f"detection references unknown patch_id {pid}")
            pids.append(pid)
        x, y, w, h = np.asarray([row["bbox"] for row in rows], np.float64).reshape(-1, 4).T
        scores = np.asarray([row["score"] for row in rows], np.float64)
        categories = np.asarray([row.get("category", 0) for row in rows], np.int64)
        content = np.array([(n.content_width, n.content_height) for n in normalized])[pids]
        with np.errstate(over="ignore"):  # a finite x + w may round to inf, which the clip bounds
            boxes, keep = clip_corners(x, y, x + w, y + h, content[:, 0], content[:, 1])
        kept, pids = Detections(boxes, scores[keep], categories[keep]), np.array(pids, dtype=np.int64)[keep]
        return [kept.take(pids == p) for p in range(len(normalized))]
