"""The index bytes, pinned: two small seeded benchmark corpora are built and
saved, and each of the six files must have the SHA-256 recorded below.

The digests were taken from the build that held its residual codes one per
byte, before they were packed four per byte in memory, so they show that the
packed layout left every file as it was. A change whose purpose is to change
the index bytes (a new format version) records new digests here and says why.
The bits of the centroid products depend on BLAS, so the digests hold on the
numpy and OpenBLAS builds the rest of the suite pins bits with.
"""

import hashlib
import os
import sys

import pytest

from modir.data import TermTable
from modir.index import INDEX_FILES, build_index, save_index

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import bench_gen  # noqa: E402

GOLDEN = {
    # dim 16: 38 bits per embedding, whole code bytes
    (16, 7): {
        "meta.json": "bfd98bcdc4cc3ec6bc5d08c16f05340c2c0fc06bf9c86b4ae59b86df26085232",
        "centroids.f32": "1679666fe9a5aa52e59607c91c7e484667aef6f81661ff93d3af22f4217c2ffc",
        "codec.f32": "a8ffa0fe29cbbed51f3a3999de84c7f262e07ff15c1b053b742e6f404c587547",
        "codes.bin": "10d9c52499bf22ec3a7b65bf958f0a48df8ba794ad5227aaa5ef7e058cb3cdcc",
        "invlists.bin": "6db5e3ced42a082a125f13d8eb421b0a5f41316f61e2d47d4aa88d4308e7fc1c",
        "passages.bin": "4a451169ee07c17d56e9ac433097fbf99952b4053244939c1894a407ab3915a8",
    },
    # dim 6: 18 bits per embedding, and the second code byte of a row half padding in memory
    (6, 23): {
        "meta.json": "443e38b058000f4998fb98bcb331132f61835323adf7360088c17dd5b7e6d176",
        "centroids.f32": "2a15519c0f0c992b933383f03104797083b333f4ecb3910484514e8f27255241",
        "codec.f32": "f4524d13cf15f0a99ad53e4c643861eb735a56fa2a259387e1da4e12d1a60ab5",
        "codes.bin": "57872390995d5ba5204b8af19a4c9925791403596261ed8020c3796fc4fb0f79",
        "invlists.bin": "72d38fc9fe2b77ef0417b642d5796145f84a36a98b84cc2b0b03807d485559fc",
        "passages.bin": "44f9fd4547ac7477af12c65f2759f2fe04e51731e99134835b6e43afdfbc1769",
    },
}


@pytest.mark.parametrize("dim,seed", sorted(GOLDEN), ids=[f"dim{d}-seed{s}" for d, s in sorted(GOLDEN)])
def test_index_files_keep_their_bytes(tmp_path, dim, seed):
    spec = bench_gen.RetrievalSpec(passages=400, min_terms=4, max_terms=12, topics=32, topic_groups=4, mix=0.3, dim=dim)
    rows, offsets, _ = bench_gen.retrieval_corpus(spec, seed)
    save_index(build_index(TermTable(bench_gen.passage_ids(spec.passages), rows, offsets), seed=seed), tmp_path / "idx")
    digests = {name: hashlib.sha256((tmp_path / "idx" / name).read_bytes()).hexdigest() for name in INDEX_FILES}
    assert digests == GOLDEN[dim, seed]
