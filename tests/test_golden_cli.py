"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed calls.

A refactor must leave every digest unchanged.  A digest may change only
when a documented edge case of the CLI changes on purpose.
"""

import hashlib

import pytest

from rank2chern.cli import main

GOLDEN = [
    ("omega --genus 3 --route ideal --format text", "b1357a72a9c1bdbdf284af912be6fdfe5774ea248fc9929e0320310bd53568aa", 0),
    ("omega --genus 3 --route ideal --format json", "c4459b8a601f6ac92ae889b129967533898e7885f26218bdbeaf1904eedda82e", 0),
    ("omega --genus 3 --route ideal --format csv", "6d0bed1f12b77c358fae5b5228a5bfa8c0957b2ffdf5f963ea69ecc531711d5b", 0),
    ("omega --genus 3 --route pairing --format text", "b1357a72a9c1bdbdf284af912be6fdfe5774ea248fc9929e0320310bd53568aa", 0),
    ("omega --genus 3 --route pairing --format json", "c4459b8a601f6ac92ae889b129967533898e7885f26218bdbeaf1904eedda82e", 0),
    ("omega --genus 3 --route pairing --format csv", "6d0bed1f12b77c358fae5b5228a5bfa8c0957b2ffdf5f963ea69ecc531711d5b", 0),
    ("omega --genus 3 --route closed --format text", "b1357a72a9c1bdbdf284af912be6fdfe5774ea248fc9929e0320310bd53568aa", 0),
    ("omega --genus 3 --route closed --format json", "c4459b8a601f6ac92ae889b129967533898e7885f26218bdbeaf1904eedda82e", 0),
    ("omega --genus 3 --route closed --format csv", "6d0bed1f12b77c358fae5b5228a5bfa8c0957b2ffdf5f963ea69ecc531711d5b", 0),
    ("relations --genus 3", "80c4b72a592f06e3667ecba781f0cddd0576efd7e845154bdabe4bf229439dec", 0),
    ("relations --genus 3 --format json", "648c1a9bea2166147a9632dfbf9353487d21c11013ae9809135188beaf2bece3", 0),
    ("relations --genus 4 --d 1", "f94ca7e61ac2745676c3f159bf272fef6277ecf9fdf8ceece787511de572e9c5", 0),
    ("relations --genus 5", "700b8c7fea7dd7ba359f3e55ae12776dea7848741ed66c9d825fd0984cec1fb2", 0),
    ("relations --genus 5 --d 1", "e83c16d97d0fd326deab2f537b9ac686847912b3d5e13859ac5287cd098fd4ab", 0),
    ("sl2 --check relations --genus 3", "79fb521e39b7b8b6711e5c775eb8367b91eb627c8088bb9c9b97dcdf20df9e39", 0),
    ("sl2 --check adjoint --genus 3", "2b26e7272b879f062c906e77b3e4bb6c9ff0f77a1a00e0e3dceb7cdec2c54598", 0),
    ("sl2 --check descent --genus 3", "75fc33cd0ef0b97c6109af598de3435380ef3e760fbbc7851fb5dc180bc9156f", 0),
    ("sl2 --check relations --genus 4 --d 1", "faf6c832273d0a092609d399b5fec02a1bc44f3feedb907e220c072c0cae0fa9", 0),
    ("sl2 --check descent --genus 4 --d 2", "aa03c43764e5963ea364d47596cdcbaa33ac9d18bacb02175a8ad654f9446dd2", 0),
    ("sl2 --check adjoint --genus 4 --normalization=7/3", "cb7ab1f9db9edd9175c52d8efaaf6def179b22b655692d8c94310da732cf074d", 0),
    ("sl2 --check closure --genus 2", "f958a55c8aef89ccc859b7debde7f8fe63cb26683d66021d72db723555e8cd51", 0),
    ("genfun --check all --expand 12", "d3c205f66efd06dd1d3bf88ba447996d60cd74c476aca2fbdc33420a49c88d54", 0),
    ("genfun --formula rank3 --genus 3 --expand 16 --format json", "1ef1a95b5bfc691e50231e9ab062c7ce5c3b825c99c5bf3f5e0aca7c43b8386a", 0),
    ("genfun --formula stack --rank 3 --genus 2 --expand 12 --format csv", "a2f986284388bf1f2e0a7cd0c187f707d1100a44d1a4d86e9bea01f42b26bf0e", 0),
    ("genfun --formula intermediate --genus 3 --d 1 --expand 14 --format json", "10521bd743a23ddfc0d0efc9ee04e3be7aca0c9a8bc8fb20b45e3f699a3a7e2c", 0),
    ("verify --suite all --genus 2", "e9737ebd198a319d549af8566ebb373e209b5192f528ec2f18f5dbc2ee08dd0d", 0),
    ("verify --suite pairing --genus 3", "11cfed4cab7ff4164e49ed6b60299d1a697f1a899930b8fb540bf78f36c24d54", 0),
    ("verify --suite pairing --genus 4 --format json", "f5d504e07617b0a0048d2511bcd4c2e1d001d3cba0400505ed11045c5080fff6", 0),
    ("verify --suite pairing --genus 8 --format json", "97fb77b51da661b2693cd16bddaa6b4cd3f8cd67cf28b2c23bcce3b5468e2b25", 0),
    ("omega --genus 8 --route pairing --format csv", "f20b2824175df3733d846d8757ae16271ea1c03bf2d17aec6d5ae47b0c3eea24", 0),
    ("omega --genus 6 --route ideal --d 2 --format csv", "5c3558f842892d305b9bd66029c5309e89ab091e09f8445e890ea5e7fe118274", 0),
    ("omega --genus 5 --route pairing --normalization=-5/2 --format csv", "43c8330ab39a072341e754a94c5fc69c7efb8f18c23e1e2ebe102c0aaeef2625", 0),
]


@pytest.mark.parametrize("line,digest,code", GOLDEN, ids=[line for line, _, _ in GOLDEN])
def test_golden_cli_output(capsys, line, digest, code):
    assert main(line.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:2000]


INTEGRALS = [
    (["--genus", "3", "alpha beta gamma"], "-3/4\n"),
    (["--genus", "3", "1 / 2 alpha^2 beta^2 − 3 psi1 psi4 alpha beta + gamma^2"], "7/8\n"),
    (
        ["--genus", "3", "--normalization", "7/3",
         "1 / 2 alpha^2 beta^2 − 3 psi1 psi4 alpha beta + gamma^2"],
        "49/24\n",
    ),
    (["--genus", "3", "-psi1psi4 psi2 psi5 + 2alpha^2beta^2"], "63/32\n"),
]


def test_golden_integral(capsys):
    for argv, out in INTEGRALS:
        assert main(["integral", *argv]) == 0
        assert capsys.readouterr().out == out, argv
