"""Golden digests of the CLI's output: byte-identical output is part of the
README contract, so any change to what `states`, `transitions`, `dot` or
`check --json` print must show up here.

Each digest is the sha256 of `"exit <code>\\n" + stdout` for one command on
one framework. The table was generated by running this module as a script
before the LTS stored its transition relation only as per-selector tables:

    PYTHONPATH=src python3 tests/test_golden_cli.py

which prints the `GOLDEN` table below. The `af-hidden` and `eu-hidden`
cases were added, the same way, before the query engine stated the CTL
duality in one table. Regenerate it the same way only for
an intended change of the output format, and say so in CHANGES.md.
"""

import hashlib
import io

from apa.cli import main
from apa.fileformat import print_framework
from apa.oracle import RandomInstanceSpec, random_framework

FRAMEWORKS = {
    "elma": (
        "arguments: a2 a3 a4 a5\n"
        "initial: a2 a3 a4\n"
        "attack: a2 -> a3\n"
        "convert: a3 : a4 => a5\n"
    ),
    "oscillator": (
        "arguments: a1 a2 a3 a4\n"
        "initial: a1 a2\n"
        "convert: a1 : a2 => a4\n"
        "convert: a2 : a1 => a3\n"
        "induce: a3 => a2\n"
        "induce: a4 => a1\n"
    ),
    "random12": print_framework(
        random_framework(RandomInstanceSpec(12, 0.15, 6, 6, seed=5))
    ),
}

#: Query files for `check --json`; `{a}` is the framework's last argument.
QUERIES = {
    "ag-visible": "formula: AG{{*}} visible({a})\n",
    "ef-hidden": "formula: EF{{*}} !visible(a2)\n",
    "eg-blocked": "set S = {{a2}}\nformula: EG{{S}} visible(a2)\n",
    "au-grounded": (
        "set N = {{}}\nset S = {{a2}}\n"
        "formula: A{{S,N}}[visible(a2) U sem(gr, S)]\n"
    ),
    "ax-hidden": "formula: AX{{*}} !visible({a})\n",
    "ex-complete": "formula: EX{{*}} sem(co, {{{a}}})\n",
    "af-hidden": "formula: AF{{*}} !visible(a2)\n",
    "eu-hidden": "formula: E{{*}}[visible(a2) U !visible({a})]\n",
}

COMMANDS = {
    "states": ["states"],
    "states-json": ["states", "--json"],
    "transitions": ["transitions"],
    "transitions-json": ["transitions", "--json"],
    "dot": ["dot"],
    "dot-annotate-gr": ["dot", "--annotate", "gr"],
    "states-sigma": ["states", "--sigma", "{},{a2}"],
    "transitions-sigma": ["transitions", "--sigma", "{a2},{}"],
    "transitions-json-sigma": ["transitions", "--json", "--sigma", "{a2},{}"],
    "dot-sigma": ["dot", "--sigma", "{a2},{}"],
}


def _cases(root):
    """(case id, argv) for every golden case, files written under `root`."""
    for fw_name, text in FRAMEWORKS.items():
        fw_path = root / f"{fw_name}.apa"
        fw_path.write_text(text)
        for cmd_name, cmd in COMMANDS.items():
            yield f"{fw_name}/{cmd_name}", [cmd[0], str(fw_path), *cmd[1:]]
        last = text.split("\n", 1)[0].split()[-1]
        for q_name, template in QUERIES.items():
            q_path = root / f"{fw_name}-{q_name}.q"
            q_path.write_text(template.format(a=last))
            yield f"{fw_name}/check-{q_name}", [
                "check", str(fw_path), str(q_path), "--json"
            ]


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    assert err.getvalue() == ""
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


GOLDEN = {
    "elma/states": "04100f74ab58c55e1026ffa958bdc22adfc8bb1664b1b2c6ddb9a85d27b8db65",
    "elma/states-json": "e248f6d6a7194ba963c9146af6c9172f4c85142d5e7f2c3a25d2122159f471c6",
    "elma/transitions": "9c5900950075c4beba5d2b078df7846bb9025580d970dd1d8558375b74859bb4",
    "elma/transitions-json": "1ea65e385cf993aad892916cd5a171b6f245b3fe46852ea0f65adae2f62e2af1",
    "elma/dot": "02bd6caac0fe9b1f86dff224580fd5e669981a16874656552b6c67a7553b8759",
    "elma/dot-annotate-gr": "71db2fb2e348d1f39ab38277794a9199b30c13da2f25069f02c4fb6427004d3e",
    "elma/states-sigma": "04100f74ab58c55e1026ffa958bdc22adfc8bb1664b1b2c6ddb9a85d27b8db65",
    "elma/transitions-sigma": "bff13031b52aee3b77126976d17b93d4d9e11666afee7b531273ea36818116bc",
    "elma/transitions-json-sigma": "1948d8e53638bfbb0d21e67fd9b4bc81c5af124d879fd7d54e614d88b290e099",
    "elma/dot-sigma": "766c942a1c82baf9f1aa8e9b0dbdef6ec230da9e333a91561e4e8b9b9661be57",
    "elma/check-ag-visible": "0bbcb0a5461dfb858d937f773a1b8bd795a6f7f488cad97791437048adec6d95",
    "elma/check-ef-hidden": "e1ac191aecd1bef8a1e5d711121097b0c58b11911afa98fdaee18d61642c24ce",
    "elma/check-eg-blocked": "edec7dcce4135ce244e649244ae77531c747339a98f16ee5f90afe27ec5b649e",
    "elma/check-au-grounded": "0bbcb0a5461dfb858d937f773a1b8bd795a6f7f488cad97791437048adec6d95",
    "elma/check-ax-hidden": "0bbcb0a5461dfb858d937f773a1b8bd795a6f7f488cad97791437048adec6d95",
    "elma/check-ex-complete": "e1ac191aecd1bef8a1e5d711121097b0c58b11911afa98fdaee18d61642c24ce",
    "elma/check-af-hidden": "0bbcb0a5461dfb858d937f773a1b8bd795a6f7f488cad97791437048adec6d95",
    "elma/check-eu-hidden": "e407c1fa4e9469ef57a5dd2b8d3dd471f51b29784265970905c7e71a8084b831",
    "oscillator/states": "6d4ded7f45c2d231de73459c6bbef0c25fd6ffda4f06bf6b59939b2f637ff995",
    "oscillator/states-json": "8d06c5c94486d1cebecaaee4f7917069b515395565045f76348bfba97c5b1e9b",
    "oscillator/transitions": "dbeed1b161e51cd5b0de0552dd2fdcf89bb66ee71df8dc5ba1e230799e8b37e3",
    "oscillator/transitions-json": "7cd2f778e47c9c737c3813cac84691b635ef93efb90c1d8bb419b7457ee384dc",
    "oscillator/dot": "f5d2caaf13225d3018af7ebfad2cc900040063bb757214671ab46f4b38322d9b",
    "oscillator/dot-annotate-gr": "d3577becc68e24d7ce4e3ae07897db7594e026daba6f10596875b86de6c7f5d8",
    "oscillator/states-sigma": "6d4ded7f45c2d231de73459c6bbef0c25fd6ffda4f06bf6b59939b2f637ff995",
    "oscillator/transitions-sigma": "e4efa25054f4818031e56ea0d221e1183955719aa95fae95f8f98d50888cf6e5",
    "oscillator/transitions-json-sigma": "96187f8a9aa26eb171a1403de663ae40795b8beade2cb99a1af7c0af5fee3f80",
    "oscillator/dot-sigma": "298cf3dbb65ec40449d5a3dfae52a3f52f4ef22e3bf32f02149a696b14f8f386",
    "oscillator/check-ag-visible": "d9ade764b7be1e9708f9416d69d9aa7be16520e947f485c1a8eceb66094cadbf",
    "oscillator/check-ef-hidden": "56ceaba7f39ec62dbb10da8d2b37d8dba19ac3b2b8f4a42653be5dbf93ef583d",
    "oscillator/check-eg-blocked": "e7975326056099396fae26d3306f1255593c190b601267cdf442457b736a547c",
    "oscillator/check-au-grounded": "d9ade764b7be1e9708f9416d69d9aa7be16520e947f485c1a8eceb66094cadbf",
    "oscillator/check-ax-hidden": "d9ade764b7be1e9708f9416d69d9aa7be16520e947f485c1a8eceb66094cadbf",
    "oscillator/check-ex-complete": "e1ac191aecd1bef8a1e5d711121097b0c58b11911afa98fdaee18d61642c24ce",
    "oscillator/check-af-hidden": "0d7117c0e14dc398d7d7ccbf0d1947bd9f7148d457a890e0f9715ffbca212b0c",
    "oscillator/check-eu-hidden": "56ceaba7f39ec62dbb10da8d2b37d8dba19ac3b2b8f4a42653be5dbf93ef583d",
    "random12/states": "13fb45982f31e978ae64cc0ed6a1bcbb68a17f225c9a44e120176940cde9b483",
    "random12/states-json": "53e7a9f2c2436c73168ba0ebcf3888dacc3887d01c6ad7a58ab8dbe9f0970272",
    "random12/transitions": "ba8b0e042e2ab33babff7d6cc05b882bd624ff5f0b00710bbad6d52468b7ee30",
    "random12/transitions-json": "11ccbea333c27a2e9d2ebf1af771bc377f23fac0737e28af34328305ca094e80",
    "random12/dot": "a078f775e4897da940b2eb0d787d88e676da0c007cb4fdb11521e2c6d9f3ff45",
    "random12/dot-annotate-gr": "a9cc2a8d980e8ecfeda9a86bc69f528ef55826d4ed7f9f1b2f6167a6dd8ce086",
    "random12/states-sigma": "13fb45982f31e978ae64cc0ed6a1bcbb68a17f225c9a44e120176940cde9b483",
    "random12/transitions-sigma": "a33c8785a1f091aa859faaba91e28c1595f2dc3207a3cf718b26ae6950c570df",
    "random12/transitions-json-sigma": "79e6c1ae3004173992b1579cd1e467389f18d4e94b4547ee691ce7e759944f63",
    "random12/dot-sigma": "b0d8f4b246c2028c4d780bd8c417201ba3a2162c4cbf4f5d4ed61f56b8e761df",
    "random12/check-ag-visible": "28a59258ec8580eb456206c7107902a2a905bd15fcebb17212820c8cd4ef4d04",
    "random12/check-ef-hidden": "e1ac191aecd1bef8a1e5d711121097b0c58b11911afa98fdaee18d61642c24ce",
    "random12/check-eg-blocked": "9fc3a9c3ee64843213e18ad9cba5ec75a376cff7c0e6253dade993786cbd95b7",
    "random12/check-au-grounded": "362dd4df396da7dac2afea004bc14b8854fcba63904a1604749576af6f6c989a",
    "random12/check-ax-hidden": "362dd4df396da7dac2afea004bc14b8854fcba63904a1604749576af6f6c989a",
    "random12/check-ex-complete": "e1ac191aecd1bef8a1e5d711121097b0c58b11911afa98fdaee18d61642c24ce",
    "random12/check-af-hidden": "28a59258ec8580eb456206c7107902a2a905bd15fcebb17212820c8cd4ef4d04",
    "random12/check-eu-hidden": "1dc446bfab78bc08953865d13d0bc303d14ad2a22abf300a9db3ebe44ed61731",
}


def test_cli_output_matches_golden_digests(tmp_path):
    got = {case: _digest(argv) for case, argv in _cases(tmp_path)}
    assert got.keys() == GOLDEN.keys()
    changed = sorted(case for case in got if got[case] != GOLDEN[case])
    assert not changed, f"CLI output changed for {changed}"


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case, argv in _cases(Path(tmp)):
            print(f'    "{case}": "{_digest(argv)}",')
        print("}")
