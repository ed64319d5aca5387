"""Golden certificates: the sha256 of the `--report` bytes and of stdout of
`wmha verify` for every finite preset, model and path, and for two windows
of the lazy `pair:inf` preset in both models.  A change to the scalar or
linear-algebra layers must leave every one of these bytes unchanged.

Re-record only in a change whose purpose is to alter certificates:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wmha.cli import main

PRESETS = ("pair:1", "pair:2", "group:cyclic:2", "group:cyclic:3",
           "bundle:cyclic:2:2", "union:pair:1+group:cyclic:2")
MODELS = ("function", "convolution")
PATHS = ("def114", "thm29", "both")

JOBS = [("verify", "--preset", p, "--model", m, "--path", x)
        for p in PRESETS for m in MODELS for x in PATHS]
JOBS += [("verify", "--preset", "pair:inf", "--model", m, "--windows", "2")
         for m in MODELS]

# job (argv joined by spaces) -> (sha256 of the report, sha256 of stdout)
GOLDEN = {
    "verify --preset pair:1 --model function --path def114":
        ("69ac98e35e29c893e17bc8cc087dad273927ef33793675051252177440bb86da",
         "f96e9d55a2e0e0eda7d03aa5151eb166ff96f8cd5e0c741a6aaa3b8ad4d3ba37"),
    "verify --preset pair:1 --model function --path thm29":
        ("34a033c6dd3efc78e0b27473d00cbe637dcd3e6f2492ba9cca59a752b372be12",
         "f0a6285dc54dae1fa05e24cbbafbd140eef6cae7789e265a467958eb2da7e14c"),
    "verify --preset pair:1 --model function --path both":
        ("002bdb5eb007bbc5fde4439cb4ec45eb8d1109c56ed7086a850eac9f23317361",
         "b098044cd8965213c827395cb12f8a6920e61e15dc6ee9b705eb7eb0844cf81d"),
    "verify --preset pair:1 --model convolution --path def114":
        ("4b7f1aa666ef80572cbae003f727ed5dc0be26da0aee08051cb6b43d7038a4f0",
         "f96e9d55a2e0e0eda7d03aa5151eb166ff96f8cd5e0c741a6aaa3b8ad4d3ba37"),
    "verify --preset pair:1 --model convolution --path thm29":
        ("275dd983e738277be2a7291583ae6c004d5d2777f74c62641e486f453ba2ebc0",
         "f0a6285dc54dae1fa05e24cbbafbd140eef6cae7789e265a467958eb2da7e14c"),
    "verify --preset pair:1 --model convolution --path both":
        ("d4a710db7481a0f49c31c25847220fe68bc70ef8158aacadb414a2b4ba99c6c0",
         "b098044cd8965213c827395cb12f8a6920e61e15dc6ee9b705eb7eb0844cf81d"),
    "verify --preset pair:2 --model function --path def114":
        ("b1071b8e86bfc5b21b5c9ed676303c466707e81a058e8a00a2311be546a2ccdc",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset pair:2 --model function --path thm29":
        ("01547e282caefe0c91dd7ddab54b054ead676a56268aa5046eb48bb0cbf38e79",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset pair:2 --model function --path both":
        ("24c3d8d3d9c58c906c077fdab5db4a5f8efba5f4b604d21ea3340cf42ea47873",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset pair:2 --model convolution --path def114":
        ("7dc9eb6a16a4d94e700f8664a7848476091b8c584f7cbc2ccfaba888deb2b953",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset pair:2 --model convolution --path thm29":
        ("1e614a0f101e45e0ec81623b6bb0828f1e71080078ab4a65f27f6fe6f60d8fab",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset pair:2 --model convolution --path both":
        ("966591df7987d2a681f12fd7cd6cfac42ad67a9e0ae7104b3eb24254d78d5e52",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset group:cyclic:2 --model function --path def114":
        ("ee15a6993c15b900c09e5389110d0502c1dc8736fb0b4c2ec88afcf6f4861665",
         "006688cc38551b241dab45be9eb00ef415f5b4488d1d64c0566285296495d2c6"),
    "verify --preset group:cyclic:2 --model function --path thm29":
        ("63e375c5127a9ca2f16d9105d2d1fe6e94e8eb5335eede7e061fd01f5140c752",
         "c788931c7f49b5fad980fc3f0a7cf9970d8d99329dd9fa5183f2816d27adf7cd"),
    "verify --preset group:cyclic:2 --model function --path both":
        ("9cb25b05b6df7d9d214fe9839c9c6a510cb2783b52a7e2673304ee63fe21341a",
         "9e29314dedf024c1510243f0044e17c7ef54a9747009ae094cf0054d056a73c0"),
    "verify --preset group:cyclic:2 --model convolution --path def114":
        ("682ee0bca4e5eefe077515bf0868ffc55879dd75db6023163ac9499da8e673ac",
         "006688cc38551b241dab45be9eb00ef415f5b4488d1d64c0566285296495d2c6"),
    "verify --preset group:cyclic:2 --model convolution --path thm29":
        ("0da48bebcea5c07f7fb371a47237e24d7ef245530336185568124660f567bf97",
         "c788931c7f49b5fad980fc3f0a7cf9970d8d99329dd9fa5183f2816d27adf7cd"),
    "verify --preset group:cyclic:2 --model convolution --path both":
        ("3d9f1cbf830f15aaab0dc8f2ac628892ff60ad835a479ddd1a6dd410996fe38c",
         "9e29314dedf024c1510243f0044e17c7ef54a9747009ae094cf0054d056a73c0"),
    "verify --preset group:cyclic:3 --model function --path def114":
        ("723af0e68e3e0afe47267a8b68f002695d8e7bce4518b3864d086b5fedb09082",
         "176d37fe978a833f48358df2d94a6f10c9ceb531eea6dd3213ff210ec222e29c"),
    "verify --preset group:cyclic:3 --model function --path thm29":
        ("92845dcc158009a9430abb7f386f7d696d74b84b4b62f70ad7d2cae51e2aa94d",
         "f3a078f8a5f745bd63e596a52d84882d12b8ab5fa03409f8ccc17776c227bc28"),
    "verify --preset group:cyclic:3 --model function --path both":
        ("b8c6643f92caa2890fcd2c9dd14d505abdf7b47652465f42b9ae372f3df1795e",
         "ac92cb302901665d03eed696047b011cfcc1ad8bde5f1e06c899deb0a9902a9d"),
    "verify --preset group:cyclic:3 --model convolution --path def114":
        ("d8d4f61f8c5547160089530ba3fb7fa9e7c13e1ae0d46802bd4b0cc5d4b6b7ea",
         "176d37fe978a833f48358df2d94a6f10c9ceb531eea6dd3213ff210ec222e29c"),
    "verify --preset group:cyclic:3 --model convolution --path thm29":
        ("90dddd55950d2f3bac41bec56c4a1578dd70fe882c20ee35a8cf231e55e7787b",
         "f3a078f8a5f745bd63e596a52d84882d12b8ab5fa03409f8ccc17776c227bc28"),
    "verify --preset group:cyclic:3 --model convolution --path both":
        ("cc72ac4ee0fff4a17c082a8eef2fb9833b1f687285b90ce820aa4ca9dd44ea6d",
         "ac92cb302901665d03eed696047b011cfcc1ad8bde5f1e06c899deb0a9902a9d"),
    "verify --preset bundle:cyclic:2:2 --model function --path def114":
        ("0d35deb1938e030cba885ffb8499a7b2fb827edd14aea8f301d3e2dea2465629",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset bundle:cyclic:2:2 --model function --path thm29":
        ("8a1b69e04bb98cf5df55d856837dea88c9632d06cd5ec14bd79d309574b69d0e",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset bundle:cyclic:2:2 --model function --path both":
        ("5022cc1ca3154aeda25f19b57c3f1284f5637e6c08492792cf6e774e4ccb4d82",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path def114":
        ("ab426d51f7fa49f97e44680c1f079bc7991e362e7032de53189a3bb9624edec9",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path thm29":
        ("7cfdd32a6468cba459b6ebc6377bd6f3ddfb19128b0809774bbeb357e6aac0a2",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path both":
        ("bc4f049fc68720193a65799c402ae7186762ffe9c015d3979f23eeab1e1e3145",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path def114":
        ("fa19e6989dcfd4df11556b749e9111b0aa2e1c31fd588301e2fdb1e2690ef98a",
         "099680a377e41da39cbd36db4be9bb1739f0a5852ee295f6278304905d437d3a"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path thm29":
        ("b705e6917d59401626b8cae4853062b6f1b849b53c5c0b9373120393c226a622",
         "e1e4e04e59cabaef17fdd01d0ca3890f2d4de42cac133cdc3e1deff96a2a3868"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path both":
        ("096b970d4464c296a401545579d24342e4ec672c99bab1137d93ff617078ce7a",
         "4547a2a8aa8ce88ac7cda80e069d787a100556d45e3a6553512d533ade90dc8c"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path def114":
        ("95e7bbc77bf669f7c8e49c7b671162dfeb4db6c540bd14616c6055b3fdaf0a6c",
         "099680a377e41da39cbd36db4be9bb1739f0a5852ee295f6278304905d437d3a"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path thm29":
        ("ffa537a45326f15127cefac7580ba7b25b762485473bf6432fecf368e2019eb4",
         "e1e4e04e59cabaef17fdd01d0ca3890f2d4de42cac133cdc3e1deff96a2a3868"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path both":
        ("733de260d62afa1a5cd155e5fe40f173def383c8bc282f98abd1903511d22116",
         "4547a2a8aa8ce88ac7cda80e069d787a100556d45e3a6553512d533ade90dc8c"),
    "verify --preset pair:inf --model function --windows 2":
        ("41ee11014ab914c574561d7b0b46ccb53619ca83d9c024f064bdd5192e12ce9e",
         "6592939fb0269ef728b842c3eb9555953bc1dd5cc49574c73cc618faedc186f6"),
    "verify --preset pair:inf --model convolution --windows 2":
        ("477a7af9e16330b14ad7df693b9f798b7513542f43a383b63137df60fd665e1e",
         "6592939fb0269ef728b842c3eb9555953bc1dd5cc49574c73cc618faedc186f6"),
}


def fingerprint(argv, workdir: Path):
    report = workdir / "report.json"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--report", str(report)])
    return (code,
            hashlib.sha256(report.read_bytes()).hexdigest(),
            hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())


@pytest.mark.parametrize("argv", JOBS, ids=[" ".join(j[2:]) for j in JOBS])
def test_certificate_bytes_unchanged(argv, tmp_path):
    code, report_sha, stdout_sha = fingerprint(argv, tmp_path)
    assert code == 0
    assert (report_sha, stdout_sha) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for argv in JOBS:
            code, report_sha, stdout_sha = fingerprint(argv, Path(tmp))
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}")
            print(f'    "{" ".join(argv)}":\n        ("{report_sha}",\n'
                  f'         "{stdout_sha}"),')
