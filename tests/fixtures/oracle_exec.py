"""An external detector that answers like the oracle adapter.

    python oracle_exec.py SCENE.json MANIFEST.json OUT.json

Run through `--adapter 'exec:python oracle_exec.py SCENE.json'`, which
appends the manifest and output paths. Every annotation whose center lies
inside a patch region (half-open) comes back as its box mapped into the
patch's normalized frame, unclipped, with score 1.0; the adapter clips.
Standard library only, so any Python can run it.
"""

import json
import sys

scene_path, manifest_path, out_path = sys.argv[1:4]
with open(scene_path, encoding="utf-8") as fh:
    objects = [
        (x + w / 2.0, y + h / 2.0, x, y, w, h, ann.get("category", 0))
        for ann in json.load(fh)["annotations"]
        for x, y, w, h in [ann["bbox"]]
    ]
with open(manifest_path, encoding="utf-8") as fh:
    manifest = json.load(fh)

rows = []
for entry in manifest:
    rx, ry, rw, rh = entry["region"]
    zoom = entry["zoom"]
    for cx, cy, x, y, w, h, category in objects:
        if rx <= cx < rx + rw and ry <= cy < ry + rh:
            x0, y0 = (x - rx) * zoom, (y - ry) * zoom
            x1, y1 = (x + w - rx) * zoom, (y + h - ry) * zoom
            rows.append(
                {"patch_id": entry["patch_id"], "bbox": [x0, y0, x1 - x0, y1 - y0],
                 "score": 1.0, "category": category}
            )
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(rows, fh)
