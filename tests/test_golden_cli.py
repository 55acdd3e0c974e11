"""Golden digests of the CLI's output: byte-identical output is part of the
README contract, so any change to what `states`, `transitions`, `dot`,
`semantics` (text and `--json`, every label, at the initial state) or
`check` (text and `--json`) print must show up here.

Each digest is the sha256 of `"exit <code>\\n" + stdout` for one command on
one framework. The table was generated by running this module as a script
before the LTS stored its transition relation only as per-selector tables:

    PYTHONPATH=src python3 tests/test_golden_cli.py

which prints the `GOLDEN` table below. The `af-hidden` and `eu-hidden`
cases were added, the same way, before the query engine stated the CTL
duality in one table. The `semantics-*` and text `check-*` cases were
added, the same way, before the query printer left the package.
Regenerate it the same way only for
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

#: Query files for `check`, run with and without `--json`; `{a}` is the
#: framework's last argument.
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
        lines = text.split("\n")
        last = lines[0].split()[-1]
        for q_name, template in QUERIES.items():
            q_path = root / f"{fw_name}-{q_name}.q"
            q_path.write_text(template.format(a=last))
            yield f"{fw_name}/check-{q_name}", [
                "check", str(fw_path), str(q_path), "--json"
            ]
        initial = ",".join(lines[1].split()[1:])
        for label in ("ad", "co", "pr", "st", "gr"):
            argv = ["semantics", str(fw_path), "--state", initial,
                    "--which", label]
            yield f"{fw_name}/semantics-{label}", argv
            yield f"{fw_name}/semantics-{label}-json", [*argv, "--json"]
        for q_name in QUERIES:
            q_path = root / f"{fw_name}-{q_name}.q"
            yield f"{fw_name}/check-{q_name}-text", [
                "check", str(fw_path), str(q_path)
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
    "elma/semantics-ad": "2916c3ad893c2e4350dd4fe1c54c693b43612ad891f78b3a2195fa517a69a172",
    "elma/semantics-ad-json": "04a5cd5c1c7beaea2c3a3ea5caa1534fce35a128be43126f94e4dddd99cfc793",
    "elma/semantics-co": "3a02a05e9840d9b0eaeeb10295412b93ab74f87adf29c83f055f3ab666d628ca",
    "elma/semantics-co-json": "b1f88954a1098542babb7926f4f470571b1eca84f79373bee13628c7e9134150",
    "elma/semantics-pr": "3a02a05e9840d9b0eaeeb10295412b93ab74f87adf29c83f055f3ab666d628ca",
    "elma/semantics-pr-json": "fa62990dfec22fac4f8d78b9bce9cce5229c55eb28ceff9b353ee2bca1fb1749",
    "elma/semantics-st": "3a02a05e9840d9b0eaeeb10295412b93ab74f87adf29c83f055f3ab666d628ca",
    "elma/semantics-st-json": "c2e9f9613992e8792b8de94c15d11a309a65fe67944afb72ba88a8cc55e52a9a",
    "elma/semantics-gr": "3a02a05e9840d9b0eaeeb10295412b93ab74f87adf29c83f055f3ab666d628ca",
    "elma/semantics-gr-json": "61cb8e56005398c3ebdf06937e7e4b609be0f272dfd3b47e258109b97a02ffc4",
    "elma/check-ag-visible-text": "97878fcf0657b17f8025ddbafcabc45b044498a2a32ad51fb663ff7f77f37337",
    "elma/check-ef-hidden-text": "d8422f8fbff55bcf841b3a28e8bfd90c0dcc39d19e77c4efc9741b38eb88915c",
    "elma/check-eg-blocked-text": "a827bf43cca63109651e4976450c7e48f10f96b7aa7cd2c4f32e43fe9f72b054",
    "elma/check-au-grounded-text": "97878fcf0657b17f8025ddbafcabc45b044498a2a32ad51fb663ff7f77f37337",
    "elma/check-ax-hidden-text": "97878fcf0657b17f8025ddbafcabc45b044498a2a32ad51fb663ff7f77f37337",
    "elma/check-ex-complete-text": "d8422f8fbff55bcf841b3a28e8bfd90c0dcc39d19e77c4efc9741b38eb88915c",
    "elma/check-af-hidden-text": "97878fcf0657b17f8025ddbafcabc45b044498a2a32ad51fb663ff7f77f37337",
    "elma/check-eu-hidden-text": "8291f45f365c598dcacb38bd1b639ee7444e7effc0967b50bda6c06484ab6231",
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
    "oscillator/semantics-ad": "a614fc0599b2bcf0a05ce134486466e18eb3ae26148da182a190cf7858647cbd",
    "oscillator/semantics-ad-json": "22b10ac235a8dd11b4b1432d071b38677834941d85df07c3f2342e8c0e7c22ec",
    "oscillator/semantics-co": "a614fc0599b2bcf0a05ce134486466e18eb3ae26148da182a190cf7858647cbd",
    "oscillator/semantics-co-json": "ee37fbaa90bf4009e4bf6e704b2fffe8b2418a0539da3e196c61b3f80904e5bd",
    "oscillator/semantics-pr": "a614fc0599b2bcf0a05ce134486466e18eb3ae26148da182a190cf7858647cbd",
    "oscillator/semantics-pr-json": "0e3c6348bb9770c5052c900a3a6d8f120cc25916e2e47cafe2020114f0789a01",
    "oscillator/semantics-st": "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "oscillator/semantics-st-json": "a5c1d17a4a1632e0d2d32382ba3cfe27a054d5c0f424153eed6394de58d32d5b",
    "oscillator/semantics-gr": "a614fc0599b2bcf0a05ce134486466e18eb3ae26148da182a190cf7858647cbd",
    "oscillator/semantics-gr-json": "a8d6d1691e8cce0eeffa36377347b23e6c37507c68b0c49600765e251a98df04",
    "oscillator/check-ag-visible-text": "459b395ffcb4a34e7f8647fb1737a3affa8bc016cdc96ea2e6e1dc7377103e3a",
    "oscillator/check-ef-hidden-text": "cd93a8b230d9cec33384f73fea06220e3b359205900b1111e8b297fd4a58adf5",
    "oscillator/check-eg-blocked-text": "25151cfbcd21f4b3c35f6cef51745bfe28050ea450612665582853112634ffde",
    "oscillator/check-au-grounded-text": "459b395ffcb4a34e7f8647fb1737a3affa8bc016cdc96ea2e6e1dc7377103e3a",
    "oscillator/check-ax-hidden-text": "459b395ffcb4a34e7f8647fb1737a3affa8bc016cdc96ea2e6e1dc7377103e3a",
    "oscillator/check-ex-complete-text": "d8422f8fbff55bcf841b3a28e8bfd90c0dcc39d19e77c4efc9741b38eb88915c",
    "oscillator/check-af-hidden-text": "77f494f25add13f17e74d19fe452bb8a94811aa837ff174ae83a1b588872d66f",
    "oscillator/check-eu-hidden-text": "cd93a8b230d9cec33384f73fea06220e3b359205900b1111e8b297fd4a58adf5",
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
    "random12/semantics-ad": "f2be7213c9dc39f55e5c6fb7087f58888824e0961d1e190fbfaf1bfb5f3d3866",
    "random12/semantics-ad-json": "68ef719f910604c2adab2afe115bfbeb92ce95c08c02e59316968efc2e04386f",
    "random12/semantics-co": "38e7a771c630654815231625c3f826613eead77a468f5f97627d2cf7b16ab59b",
    "random12/semantics-co-json": "8efd20ca75fdadfab0fbd7ab232188e2c99836dc39378346bada5f0f052ec247",
    "random12/semantics-pr": "2cb7ef74cb200afb840ab45a936af891207b2ee314bb87235f7d2e4a6cd00512",
    "random12/semantics-pr-json": "ee1455a51c78e757ef21ebf8d37b690c9de12d0e91a23993386a784a84efcac8",
    "random12/semantics-st": "2cb7ef74cb200afb840ab45a936af891207b2ee314bb87235f7d2e4a6cd00512",
    "random12/semantics-st-json": "0b683e30be1fdf013b2c579828d89b0f509bfbc242c6f2b6d4c5950357250e96",
    "random12/semantics-gr": "f4490414e7a824c4820c61682d4b56eee31ff603c1d8bd22aa033f0794c5651c",
    "random12/semantics-gr-json": "bd7ef8c51a69d7aee6431c8b4e009fef4edecbefb0406e78b766d46e698a256d",
    "random12/check-ag-visible-text": "13f3e5909608c89678b93103e2950e43e29529555ab31822814a22798bb3980f",
    "random12/check-ef-hidden-text": "d8422f8fbff55bcf841b3a28e8bfd90c0dcc39d19e77c4efc9741b38eb88915c",
    "random12/check-eg-blocked-text": "f0ef35ceea2755d3f6d3e24879b257dab7a83cb3e2a88a2bb3a877dac13d3245",
    "random12/check-au-grounded-text": "0c1225293f46ea13f2f6ac4d3075932bc74064e7d224892c18bc8fe76047c661",
    "random12/check-ax-hidden-text": "0c1225293f46ea13f2f6ac4d3075932bc74064e7d224892c18bc8fe76047c661",
    "random12/check-ex-complete-text": "d8422f8fbff55bcf841b3a28e8bfd90c0dcc39d19e77c4efc9741b38eb88915c",
    "random12/check-af-hidden-text": "13f3e5909608c89678b93103e2950e43e29529555ab31822814a22798bb3980f",
    "random12/check-eu-hidden-text": "3cedcde12e1f7faaa8663241f07326acde8dd27ef8ae6fbbbd12fe474aff7254",
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
