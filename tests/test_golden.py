"""Golden CLI output: the exit code and the sha256 of the stdout of a fixed
table of commands, so that "byte for byte the same output" is a standing
check.  An argument ``@name`` stands for the path of the input file
``name`` of ``FILES``; no command prints a path."""

import contextlib
import hashlib
import io
import json

import pytest

from poslog.cli import main

SPECTRA = {
    "empty": {"elements": []},
    "point": {"elements": ["s"]},
    "antichain2": {"elements": ["a", "b"]},
    "chain2": {"elements": ["p", "q"], "leq": [["p", "q"]]},
    "chain3": {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"]]},
}
FILES = {
    **{f"dl-{name}.json": {"type": "dl", "spectrum": s} for name, s in SPECTRA.items()},
    **{f"poset-{name}.json": s for name, s in SPECTRA.items()},
    "vee.json": {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["a", "c"]]},
    "chain4.json": {"elements": ["w", "x", "y", "z"],
                    "leq": [["w", "x"], ["x", "y"], ["y", "z"]]},
    "diamond4.json": {"elements": ["b", "l", "r", "t"],
                      "leq": [["b", "l"], ["b", "r"], ["l", "t"], ["r", "t"]]},
    "ba2.json": {"type": "ba", "atoms": ["u", "v"]},
    "ba3.json": {"type": "ba", "atoms": ["u", "v", "w"]},
    "kripke.json": {"carrier": ["x", "y", "z"],
                    "structure": {"x": ["y", "z"], "y": ["y"], "z": []}},
    "monotone.json": {"carrier": {"elements": ["x", "y"], "leq": [["x", "y"]]},
                      "structure": {"x": ["x", "y"], "y": ["y"]}},
    "val-kripke.json": {"p": ["y"], "q": ["x", "z"]},
    "val-monotone.json": {"p": ["y"], "q": ["x", "y"]},
}
SYNTAXES = ("dunn", "free", "semantic:pow", "semantic:mnb", "semantic:nb")
FUNCTORS = ("pow", "nb", "mnb", "bag:3", "poly:sigma=f:2:1,c:0:2")
POSETS = (*(f"poset-{name}.json" for name in SPECTRA), "vee.json")
FORMULAS = ("p", "(dia p)", "(box p)", "(and q (dia p))", "(or (box (dia q)) p)",
            "(dia (box (or p q)))", "top", "bot")

REQUESTS = [
    *(f"positivize --syntax {syntax} --lattice @dl-{name}.json{flag}"
      for syntax in SYNTAXES for name in SPECTRA
      for flag in ("", " --check-closed-form")),
    *(f"positivize --syntax {syntax} --lattice @ba2.json --check-closed-form"
      for syntax in SYNTAXES),
    *(f"posetify --functor {functor} --poset @{poset} --method {method}"
      for functor in FUNCTORS for method in ("generic", "closed", "both")
      for poset in POSETS),
    *(f"dualize --poset @poset-{name}.json" for name in SPECTRA),
    "dualize --poset @vee.json",
    *(f"dualize --lattice @dl-{name}.json" for name in SPECTRA),
    "dualize --lattice @ba3.json",
    *(f"interpret --coalgebra @kripke.json --valuation @val-kripke.json "
      f"--mode {mode} --formula {formula.replace(' ', '_')}"
      for mode in ("boolean", "positive", "both") for formula in FORMULAS),
    *(f"interpret --coalgebra @monotone.json --valuation @val-monotone.json "
      f"--mode {mode} --formula {formula.replace(' ', '_')}"
      for mode in ("positive", "both") for formula in FORMULAS),
    *(f"export-dot --input @{name}" for name in sorted(FILES)
      if name.startswith(("dl-", "poset-", "ba")) or name == "vee.json"),
    *(f"verify --suite {suite}"
      for suite in ("order", "algebra", "posetify", "positivize", "semantics")),
    # the dense carriers: 35 multisets, 168 up-closed families on the 4-chain
    *(f"posetify --functor {functor} --poset @{poset} --method both"
      for functor in FUNCTORS if functor != "nb"
      for poset in ("chain4.json", "diamond4.json")),
]


def resolve(argv: str, directory) -> list:
    """The argument list of a request: ``@name`` becomes a path in
    ``directory`` and ``_`` in a formula a space."""
    return [f"{directory}/{a[1:]}" if a.startswith("@") else a.replace("_", " ")
            for a in argv.split()]


# (request, exit code, first 16 hex digits of the sha256 of stdout),
# recorded before the algebra and semantics layers moved to masks; the
# two verify suites (their PASS lines) before isomorphism types were
# found by canonical extension; the posetify requests before the lifted
# posets were rendered in one pass; the posetify, positivize and
# semantics suites before functor actions took index assignments; the
# 4-element posetify requests before multiset and up-closed-family actions
# were tabulated along their carriers.
GOLDEN = [
    ('positivize --syntax dunn --lattice @dl-empty.json', 0, '74b95a54db1d0663'),
    ('positivize --syntax dunn --lattice @dl-empty.json --check-closed-form', 0, '180ff37504f03182'),
    ('positivize --syntax dunn --lattice @dl-point.json', 0, 'e86e5ce6310ebc97'),
    ('positivize --syntax dunn --lattice @dl-point.json --check-closed-form', 0, 'f73ec175fadb526e'),
    ('positivize --syntax dunn --lattice @dl-antichain2.json', 0, 'a8c1196de04d8b85'),
    ('positivize --syntax dunn --lattice @dl-antichain2.json --check-closed-form', 0, '00705932a7c8eeda'),
    ('positivize --syntax dunn --lattice @dl-chain2.json', 0, '579707db40550605'),
    ('positivize --syntax dunn --lattice @dl-chain2.json --check-closed-form', 0, '6e2a2d888770f746'),
    ('positivize --syntax dunn --lattice @dl-chain3.json', 0, '087cb2ada8a7c851'),
    ('positivize --syntax dunn --lattice @dl-chain3.json --check-closed-form', 0, 'e726e440983e5439'),
    ('positivize --syntax free --lattice @dl-empty.json', 0, 'ca02abf1490c9e41'),
    ('positivize --syntax free --lattice @dl-empty.json --check-closed-form', 0, '369dcfa57337bfd4'),
    ('positivize --syntax free --lattice @dl-point.json', 0, 'bbe0fe12d622d413'),
    ('positivize --syntax free --lattice @dl-point.json --check-closed-form', 0, 'e33a8129b81e2509'),
    ('positivize --syntax free --lattice @dl-antichain2.json', 0, '3d93ed40bcdaf9bd'),
    ('positivize --syntax free --lattice @dl-antichain2.json --check-closed-form', 0, 'dd412e2cb708af13'),
    ('positivize --syntax free --lattice @dl-chain2.json', 0, '1516bf8995e53e21'),
    ('positivize --syntax free --lattice @dl-chain2.json --check-closed-form', 0, '1a28087c77801802'),
    ('positivize --syntax free --lattice @dl-chain3.json', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax free --lattice @dl-chain3.json --check-closed-form', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax semantic:pow --lattice @dl-empty.json', 0, '4ddd59c63b12abc4'),
    ('positivize --syntax semantic:pow --lattice @dl-empty.json --check-closed-form', 0, '5b7222ffda7f5130'),
    ('positivize --syntax semantic:pow --lattice @dl-point.json', 0, '44fb8cdae97c453f'),
    ('positivize --syntax semantic:pow --lattice @dl-point.json --check-closed-form', 0, '4f065251d1746798'),
    ('positivize --syntax semantic:pow --lattice @dl-antichain2.json', 0, '012dcc147155bb09'),
    ('positivize --syntax semantic:pow --lattice @dl-antichain2.json --check-closed-form', 0, 'e84324e6a5c69ecf'),
    ('positivize --syntax semantic:pow --lattice @dl-chain2.json', 0, '69cadaf287a7abdc'),
    ('positivize --syntax semantic:pow --lattice @dl-chain2.json --check-closed-form', 0, '513dec4d65610815'),
    ('positivize --syntax semantic:pow --lattice @dl-chain3.json', 0, '9cec520c63e9a71b'),
    ('positivize --syntax semantic:pow --lattice @dl-chain3.json --check-closed-form', 0, 'dd491fac45edcd40'),
    ('positivize --syntax semantic:mnb --lattice @dl-empty.json', 0, '7d0bfb6b27d95eaa'),
    ('positivize --syntax semantic:mnb --lattice @dl-empty.json --check-closed-form', 0, 'c73ffdfbd41a43de'),
    ('positivize --syntax semantic:mnb --lattice @dl-point.json', 0, '266b215bb99fafa0'),
    ('positivize --syntax semantic:mnb --lattice @dl-point.json --check-closed-form', 0, 'e66e76ee855bb000'),
    ('positivize --syntax semantic:mnb --lattice @dl-antichain2.json', 0, '305ef01c1aacda1d'),
    ('positivize --syntax semantic:mnb --lattice @dl-antichain2.json --check-closed-form', 0, 'e46b1b59a5908b85'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain2.json', 0, '528cb9ed6d7e1196'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain2.json --check-closed-form', 0, '5c42d027919eec10'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain3.json', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain3.json --check-closed-form', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax semantic:nb --lattice @dl-empty.json', 0, '3df9c5c814993ac7'),
    ('positivize --syntax semantic:nb --lattice @dl-empty.json --check-closed-form', 0, 'e14f824919dd4bae'),
    ('positivize --syntax semantic:nb --lattice @dl-point.json', 0, 'fe3c80b99d960a40'),
    ('positivize --syntax semantic:nb --lattice @dl-point.json --check-closed-form', 0, '9ee63f311d374f09'),
    ('positivize --syntax semantic:nb --lattice @dl-antichain2.json', 0, 'af74b1b406ba6610'),
    ('positivize --syntax semantic:nb --lattice @dl-antichain2.json --check-closed-form', 0, '414455a0ce9a15e9'),
    ('positivize --syntax semantic:nb --lattice @dl-chain2.json', 0, '1d1da5090bdfedd0'),
    ('positivize --syntax semantic:nb --lattice @dl-chain2.json --check-closed-form', 0, '6842249dd6a054b5'),
    ('positivize --syntax semantic:nb --lattice @dl-chain3.json', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax semantic:nb --lattice @dl-chain3.json --check-closed-form', 2, 'e3b0c44298fc1c14'),
    ('positivize --syntax dunn --lattice @ba2.json --check-closed-form', 0, '67696276ad582894'),
    ('positivize --syntax free --lattice @ba2.json --check-closed-form', 0, 'f49067d8b6a1078f'),
    ('positivize --syntax semantic:pow --lattice @ba2.json --check-closed-form', 0, 'c60d5c03dfc902e5'),
    ('positivize --syntax semantic:mnb --lattice @ba2.json --check-closed-form', 0, '56e9d703c9f8a5a8'),
    ('positivize --syntax semantic:nb --lattice @ba2.json --check-closed-form', 0, 'acea39c5dafe0c80'),
    ('posetify --functor pow --poset @poset-empty.json --method generic', 0, 'f509485084995380'),
    ('posetify --functor pow --poset @poset-point.json --method generic', 0, '9755c3262eeb615b'),
    ('posetify --functor pow --poset @poset-antichain2.json --method generic', 0, '3d525a8de0d45b18'),
    ('posetify --functor pow --poset @poset-chain2.json --method generic', 0, 'e077e65544f611bb'),
    ('posetify --functor pow --poset @poset-chain3.json --method generic', 0, '27554fc34bcc530e'),
    ('posetify --functor pow --poset @vee.json --method generic', 0, '872ff3eb092c5d40'),
    ('posetify --functor pow --poset @poset-empty.json --method closed', 0, '5bf9c639150ed3e1'),
    ('posetify --functor pow --poset @poset-point.json --method closed', 0, 'd9d4352659d320a1'),
    ('posetify --functor pow --poset @poset-antichain2.json --method closed', 0, 'a70b34c7f1117948'),
    ('posetify --functor pow --poset @poset-chain2.json --method closed', 0, 'fd4e03893599eeaa'),
    ('posetify --functor pow --poset @poset-chain3.json --method closed', 0, '19d093e0e08959eb'),
    ('posetify --functor pow --poset @vee.json --method closed', 0, '74d34387b84ce0a1'),
    ('posetify --functor pow --poset @poset-empty.json --method both', 0, 'bc1474a98661529e'),
    ('posetify --functor pow --poset @poset-point.json --method both', 0, '608427e04046368c'),
    ('posetify --functor pow --poset @poset-antichain2.json --method both', 0, '6e722113851cf2b0'),
    ('posetify --functor pow --poset @poset-chain2.json --method both', 0, 'a4ddfeb07f797e5d'),
    ('posetify --functor pow --poset @poset-chain3.json --method both', 0, 'a67eb78714b2539d'),
    ('posetify --functor pow --poset @vee.json --method both', 0, '6a8ed80cae1a670c'),
    ('posetify --functor nb --poset @poset-empty.json --method generic', 0, 'a233d9fb883a3c59'),
    ('posetify --functor nb --poset @poset-point.json --method generic', 0, '39d5048c8cb67ac2'),
    ('posetify --functor nb --poset @poset-antichain2.json --method generic', 0, '5d44410dfbd6207f'),
    ('posetify --functor nb --poset @poset-chain2.json --method generic', 0, 'dfe12279530898e0'),
    ('posetify --functor nb --poset @poset-chain3.json --method generic', 2, 'e3b0c44298fc1c14'),
    ('posetify --functor nb --poset @vee.json --method generic', 2, 'e3b0c44298fc1c14'),
    ('posetify --functor nb --poset @poset-empty.json --method closed', 0, 'cdcc3a4e7fcd36ec'),
    ('posetify --functor nb --poset @poset-point.json --method closed', 0, '0f53536703321961'),
    ('posetify --functor nb --poset @poset-antichain2.json --method closed', 0, '78d5fc575c5192a9'),
    ('posetify --functor nb --poset @poset-chain2.json --method closed', 0, '58c79aa6026c6c32'),
    ('posetify --functor nb --poset @poset-chain3.json --method closed', 0, '90757e35df601788'),
    ('posetify --functor nb --poset @vee.json --method closed', 0, '67309b87de61ad33'),
    ('posetify --functor nb --poset @poset-empty.json --method both', 0, 'c085ec37f82e5ea8'),
    ('posetify --functor nb --poset @poset-point.json --method both', 0, '5408e1dae77dc5bb'),
    ('posetify --functor nb --poset @poset-antichain2.json --method both', 0, 'aef47d885b0aedf5'),
    ('posetify --functor nb --poset @poset-chain2.json --method both', 0, '5c6cb6726358f5dc'),
    ('posetify --functor nb --poset @poset-chain3.json --method both', 2, 'e3b0c44298fc1c14'),
    ('posetify --functor nb --poset @vee.json --method both', 2, 'e3b0c44298fc1c14'),
    ('posetify --functor mnb --poset @poset-empty.json --method generic', 0, 'c003b69fc9f299cd'),
    ('posetify --functor mnb --poset @poset-point.json --method generic', 0, '70afcd350599ca98'),
    ('posetify --functor mnb --poset @poset-antichain2.json --method generic', 0, '285e8cba8bace991'),
    ('posetify --functor mnb --poset @poset-chain2.json --method generic', 0, '571a18b0310ba2c8'),
    ('posetify --functor mnb --poset @poset-chain3.json --method generic', 0, 'acaf41ab080b6725'),
    ('posetify --functor mnb --poset @vee.json --method generic', 0, 'd93154c53073e64b'),
    ('posetify --functor mnb --poset @poset-empty.json --method closed', 0, 'fd38d7f26ae862ad'),
    ('posetify --functor mnb --poset @poset-point.json --method closed', 0, '958d0440972c2e78'),
    ('posetify --functor mnb --poset @poset-antichain2.json --method closed', 0, '941ecb03a0eb21e8'),
    ('posetify --functor mnb --poset @poset-chain2.json --method closed', 0, '48100b968d44571f'),
    ('posetify --functor mnb --poset @poset-chain3.json --method closed', 0, '769c42015193f9fb'),
    ('posetify --functor mnb --poset @vee.json --method closed', 0, '2700228c2f175a55'),
    ('posetify --functor mnb --poset @poset-empty.json --method both', 0, 'deb819d7c8790552'),
    ('posetify --functor mnb --poset @poset-point.json --method both', 0, '016117578186d28c'),
    ('posetify --functor mnb --poset @poset-antichain2.json --method both', 0, '833f55f517296cf8'),
    ('posetify --functor mnb --poset @poset-chain2.json --method both', 0, '715ccf3b585b5226'),
    ('posetify --functor mnb --poset @poset-chain3.json --method both', 0, '3326204378cc7456'),
    ('posetify --functor mnb --poset @vee.json --method both', 0, '73f6695c016f3085'),
    ('posetify --functor bag:3 --poset @poset-empty.json --method generic', 0, 'da37bd0db6f160f3'),
    ('posetify --functor bag:3 --poset @poset-point.json --method generic', 0, '5df5abbf11ee2a9d'),
    ('posetify --functor bag:3 --poset @poset-antichain2.json --method generic', 0, '3474e6e6ff2bf7ca'),
    ('posetify --functor bag:3 --poset @poset-chain2.json --method generic', 0, 'd41306f49240709e'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method generic', 0, '41b8a582e676ea55'),
    ('posetify --functor bag:3 --poset @vee.json --method generic', 0, 'dcaf04cb558afc8b'),
    ('posetify --functor bag:3 --poset @poset-empty.json --method closed', 0, 'a880b990d4878769'),
    ('posetify --functor bag:3 --poset @poset-point.json --method closed', 0, '72246354a9eb4d91'),
    ('posetify --functor bag:3 --poset @poset-antichain2.json --method closed', 0, '0947f6c37ce029c2'),
    ('posetify --functor bag:3 --poset @poset-chain2.json --method closed', 0, '81d3483d4bed0373'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method closed', 0, 'e83818ba2937e13e'),
    ('posetify --functor bag:3 --poset @vee.json --method closed', 0, '63ae5471c223dc76'),
    ('posetify --functor bag:3 --poset @poset-empty.json --method both', 0, 'd7580536dbd5733b'),
    ('posetify --functor bag:3 --poset @poset-point.json --method both', 0, 'be4c992f3a09f567'),
    ('posetify --functor bag:3 --poset @poset-antichain2.json --method both', 0, '45b0a8e17848d3de'),
    ('posetify --functor bag:3 --poset @poset-chain2.json --method both', 0, '24b1c3189f2ee6a2'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method both', 0, '68715ee03b8433ab'),
    ('posetify --functor bag:3 --poset @vee.json --method both', 0, '266a726c62dd65c7'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-empty.json --method generic', 0, '3db59d84fbc51309'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-point.json --method generic', 0, '6018743d15372e2e'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-antichain2.json --method generic', 0, 'e8be588a6100a3d4'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain2.json --method generic', 0, '831760efc4d78d0e'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method generic', 0, '45081ea0bb8ba920'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @vee.json --method generic', 0, '6ef34877bfaedc6b'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-empty.json --method closed', 0, '53b0abe1b6921750'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-point.json --method closed', 0, 'b7302e292f20c576'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-antichain2.json --method closed', 0, '6c850ddbedc2e9a7'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain2.json --method closed', 0, 'c7dc56474194f971'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method closed', 0, 'be033f0ebef2cf54'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @vee.json --method closed', 0, '9a710d259e2838eb'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-empty.json --method both', 0, '367258c542dd7c2d'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-point.json --method both', 0, '547536715fac995e'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-antichain2.json --method both', 0, '49779e7a343f23f1'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain2.json --method both', 0, 'cb82f97758196b00'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method both', 0, '3642f9b22b0ca88d'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @vee.json --method both', 0, 'f8783735f432ba99'),
    ('dualize --poset @poset-empty.json', 0, '2a3856cb11ce2760'),
    ('dualize --poset @poset-point.json', 0, '5c4a88640fe5b036'),
    ('dualize --poset @poset-antichain2.json', 0, 'a5d5264e542010bb'),
    ('dualize --poset @poset-chain2.json', 0, '580cda6593c8a166'),
    ('dualize --poset @poset-chain3.json', 0, '0be1b691a7163460'),
    ('dualize --poset @vee.json', 0, '7500425ea6b8b406'),
    ('dualize --lattice @dl-empty.json', 0, '916d06be3474a1fa'),
    ('dualize --lattice @dl-point.json', 0, '33d2065878c25964'),
    ('dualize --lattice @dl-antichain2.json', 0, 'a7fe0dfebe601506'),
    ('dualize --lattice @dl-chain2.json', 0, '7edf9228e62a1140'),
    ('dualize --lattice @dl-chain3.json', 0, 'f58f21cdf0622bd6'),
    ('dualize --lattice @ba3.json', 0, 'ce702aff35723558'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula p', 0, '2e6fd6ad1945dd0d'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (dia_p)', 0, '64687b6cc830f060'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (box_p)', 0, '7d6e8fab5e09edd6'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (and_q_(dia_p))', 0, '92397e082bb51a59'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (or_(box_(dia_q))_p)', 0, '3f634a3b3756f2ad'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (dia_(box_(or_p_q)))', 0, '1b5b4fc63d79a628'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula top', 0, 'f29e585c298ae15f'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula bot', 0, '0a9ca119693aa92d'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula p', 0, 'e0c5d9768185569d'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (dia_p)', 0, '0c83eb7eba95287d'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (box_p)', 0, 'cb91022288a7aa4a'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (and_q_(dia_p))', 0, '22d54b454226b646'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (or_(box_(dia_q))_p)', 0, 'b021d657a11b96f9'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (dia_(box_(or_p_q)))', 0, 'b0393a3477c8edc2'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula top', 0, '4dab234061cc2811'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula bot', 0, '8e97d4c0635ac09f'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula p', 0, 'd44811d7a28baa0f'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (dia_p)', 0, '59e2056393886407'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (box_p)', 0, '648f48114b1074ab'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (and_q_(dia_p))', 0, 'b473da2a09e9d928'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (or_(box_(dia_q))_p)', 0, '903ec9f7c8819a77'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (dia_(box_(or_p_q)))', 0, 'af672f92bf9c454b'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula top', 0, 'c780bc901d6336ea'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula bot', 0, '7ec5a6dc8d24ca71'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula p', 0, 'e0c5d9768185569d'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (dia_p)', 0, '0c83eb7eba95287d'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (box_p)', 0, '0a502eff44d2f54c'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (and_q_(dia_p))', 0, '4985c03c445c4e71'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (or_(box_(dia_q))_p)', 0, '65a7aa0b07751f8f'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (dia_(box_(or_p_q)))', 0, 'b0393a3477c8edc2'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula top', 0, '7e35d069eaaa43a4'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula bot', 0, '8e97d4c0635ac09f'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula p', 0, '07226c6431ace369'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (dia_p)', 0, 'e94b5760e8588388'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (box_p)', 0, 'e714a3ba1ee1d8b8'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (and_q_(dia_p))', 0, '7636993c98c18652'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (or_(box_(dia_q))_p)', 0, 'a04f17918b745549'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (dia_(box_(or_p_q)))', 0, 'c84d3723c017cdb3'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula top', 0, '6f04a7647d03bbf9'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula bot', 0, '25580f447cd37453'),
    ('export-dot --input @ba2.json', 0, 'd5528a373af71142'),
    ('export-dot --input @ba3.json', 0, '3739b2c964048fc2'),
    ('export-dot --input @dl-antichain2.json', 0, 'e1e94a17e570e9f0'),
    ('export-dot --input @dl-chain2.json', 0, '3ce244b132dcd02e'),
    ('export-dot --input @dl-chain3.json', 0, 'b503ac29a4df754e'),
    ('export-dot --input @dl-empty.json', 0, '733f8e58f4fc5d9e'),
    ('export-dot --input @dl-point.json', 0, '73c646a6cce99e25'),
    ('export-dot --input @poset-antichain2.json', 0, '0bbee0d54cfb52e4'),
    ('export-dot --input @poset-chain2.json', 0, 'cf50c311e145b2ef'),
    ('export-dot --input @poset-chain3.json', 0, '508ee7e7823e858e'),
    ('export-dot --input @poset-empty.json', 0, '107fbb6f6d4f6b0b'),
    ('export-dot --input @poset-point.json', 0, '34d89b108a74fe44'),
    ('export-dot --input @vee.json', 0, '6c98db2d6a898633'),
    ('verify --suite order', 0, '755f05e722b51265'),
    ('verify --suite algebra', 0, '700bac69c69c4b6b'),
    ('verify --suite posetify', 0, '004aebdacff5f555'),
    ('verify --suite positivize', 0, 'e5e5353ec14ba337'),
    ('verify --suite semantics', 0, 'da8508280a79c467'),
    ('posetify --functor pow --poset @chain4.json --method both', 0, 'a5cec21494b278db'),
    ('posetify --functor pow --poset @diamond4.json --method both', 0, '81c2ad2084c66ffd'),
    ('posetify --functor mnb --poset @chain4.json --method both', 0, '3bb2dadf2f4d2049'),
    ('posetify --functor mnb --poset @diamond4.json --method both', 0, '60c644eb3aea4e1d'),
    ('posetify --functor bag:3 --poset @chain4.json --method both', 0, '5298b86847ca446f'),
    ('posetify --functor bag:3 --poset @diamond4.json --method both', 0, '9926986aa6575841'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @chain4.json --method both', 0, '26c187f9064185e1'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @diamond4.json --method both', 0, '8beea7daaad02f5a'),
]


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, data in FILES.items():
        (d / name).write_text(json.dumps(data))
    return d


def test_the_table_covers_every_request():
    assert [argv for argv, _, _ in GOLDEN] == REQUESTS


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_the_recorded_digest(directory, argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(resolve(argv, directory))
    assert (rc, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]) == (code, digest)


# (request, exit code, stderr line): every budget refusal of a request at
# the largest --max-enum below what it needs, recorded before the budget
# moved from parameters into a context.  Each verb at a budget one below
# the least at which a fixture above passes (the positive route of
# interpret needs none), each verify suite at --max-enum 1, and the
# generator cap.
REFUSALS = [
    ('posetify --functor pow --poset @poset-chain3.json --method generic --max-enum 63', 2, 'budget refused: powerset order lifting would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('posetify --functor pow --poset @poset-chain3.json --method closed --max-enum 63', 2, 'budget refused: convex powerset would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('posetify --functor pow --poset @poset-chain3.json --method both --max-enum 63', 2, 'budget refused: pow cross-check comparison would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('posetify --functor nb --poset @poset-chain2.json --method generic --max-enum 255', 2, 'budget refused: nb on 3 comparable pairs exceeds the budget and no closed-form lifting is available; raise it with --max-enum'),
    ('posetify --functor nb --poset @poset-chain3.json --method closed --max-enum 255', 2, 'budget refused: neighbourhood families on the carrier would enumerate 256 items (budget 255); raise it with --max-enum'),
    ('posetify --functor nb --poset @poset-chain2.json --method both --max-enum 255', 2, 'budget refused: nb cross-check comparison would enumerate 256 items (budget 255); raise it with --max-enum'),
    ('posetify --functor mnb --poset @poset-chain3.json --method generic --max-enum 399', 2, 'budget refused: order lifting closure would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor mnb --poset @poset-chain3.json --method closed --max-enum 399', 2, 'budget refused: up-closed family comparison would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor mnb --poset @poset-chain3.json --method both --max-enum 399', 2, 'budget refused: mnb cross-check comparison would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method generic --max-enum 399', 2, 'budget refused: bag:3 lifted relation would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method closed --max-enum 399', 2, 'budget refused: multiset order lifting would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor bag:3 --poset @poset-chain3.json --method both --max-enum 399', 2, 'budget refused: bag:3 cross-check comparison would enumerate 400 items (budget 399); raise it with --max-enum'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method generic --max-enum 120', 2, 'budget refused: poly:sigma=f:2:1,c:0:2 lifted relation would enumerate 121 items (budget 120); raise it with --max-enum'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method closed --max-enum 120', 2, 'budget refused: polynomial order lifting would enumerate 121 items (budget 120); raise it with --max-enum'),
    ('posetify --functor poly:sigma=f:2:1,c:0:2 --poset @poset-chain3.json --method both --max-enum 120', 2, 'budget refused: poly:sigma=f:2:1,c:0:2 cross-check comparison would enumerate 121 items (budget 120); raise it with --max-enum'),
    ('positivize --syntax dunn --lattice @dl-chain2.json --max-enum 15', 2, 'budget refused: inserter sweep would enumerate 16 items (budget 15); raise it with --max-enum'),
    ('positivize --syntax dunn --lattice @dl-chain2.json --check-closed-form --max-enum 15', 2, 'budget refused: inserter sweep would enumerate 16 items (budget 15); raise it with --max-enum'),
    ('positivize --syntax free --lattice @dl-chain2.json --max-enum 65535', 2, 'budget refused: inserter sweep would enumerate 65536 items (budget 65535); raise it with --max-enum'),
    ('positivize --syntax free --lattice @dl-chain2.json --check-closed-form --max-enum 65535', 2, 'budget refused: inserter sweep would enumerate 65536 items (budget 65535); raise it with --max-enum'),
    ('positivize --syntax semantic:pow --lattice @dl-chain2.json --max-enum 15', 2, 'budget refused: inserter sweep would enumerate 16 items (budget 15); raise it with --max-enum'),
    ('positivize --syntax semantic:pow --lattice @dl-chain2.json --check-closed-form --max-enum 15', 2, 'budget refused: inserter sweep would enumerate 16 items (budget 15); raise it with --max-enum'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain2.json --max-enum 63', 2, 'budget refused: inserter sweep would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('positivize --syntax semantic:mnb --lattice @dl-chain2.json --check-closed-form --max-enum 63', 2, 'budget refused: inserter sweep would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('positivize --syntax semantic:nb --lattice @dl-chain2.json --max-enum 65535', 2, 'budget refused: inserter sweep would enumerate 65536 items (budget 65535); raise it with --max-enum'),
    ('positivize --syntax semantic:nb --lattice @dl-chain2.json --check-closed-form --max-enum 65535', 2, 'budget refused: inserter sweep would enumerate 65536 items (budget 65535); raise it with --max-enum'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode boolean --formula (dia_(box_(or_p_q))) --max-enum 63', 2, 'budget refused: semantic component construction would enumerate 64 items (budget 63); raise it with --max-enum'),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode positive --formula (dia_(box_(or_p_q))) --max-enum 1', 0, ''),
    ('interpret --coalgebra @kripke.json --valuation @val-kripke.json --mode both --formula (dia_(box_(or_p_q))) --max-enum 255', 2, 'budget refused: boolean algebra carrier would enumerate 256 items (budget 255); raise it with --max-enum'),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode positive --formula (dia_(box_(or_p_q))) --max-enum 1', 0, ''),
    ('interpret --coalgebra @monotone.json --valuation @val-monotone.json --mode both --formula (dia_(box_(or_p_q))) --max-enum 15', 2, 'budget refused: convex powerset would enumerate 16 items (budget 15); raise it with --max-enum'),
    ('dualize --poset @poset-chain3.json --max-enum 7', 2, 'budget refused: distributive lattice carrier would enumerate 8 items (budget 7); raise it with --max-enum'),
    ('dualize --lattice @dl-chain3.json --max-enum 7', 2, 'budget refused: distributive lattice carrier would enumerate 8 items (budget 7); raise it with --max-enum'),
    ('dualize --lattice @ba3.json --max-enum 7', 2, 'budget refused: distributive lattice carrier would enumerate 8 items (budget 7); raise it with --max-enum'),
    ('export-dot --input @dl-chain3.json --max-enum 7', 2, 'budget refused: distributive lattice carrier would enumerate 8 items (budget 7); raise it with --max-enum'),
    ('verify --suite order --max-enum 1', 0, ''),
    ('verify --suite algebra --max-enum 1', 2, 'budget refused: distributive lattice carrier would enumerate 2 items (budget 1); raise it with --max-enum'),
    ('verify --suite posetify --max-enum 1', 2, 'budget refused: pow cross-check comparison would enumerate 4 items (budget 1); raise it with --max-enum'),
    ('verify --suite positivize --max-enum 1', 2, 'budget refused: boolean algebra carrier would enumerate 2 items (budget 1); raise it with --max-enum'),
    ('verify --suite semantics --max-enum 1', 2, 'budget refused: semantic component domain would enumerate 2 items (budget 1); raise it with --max-enum'),
    ('positivize --syntax free --lattice @dl-chain2.json --max-enum 15', 2, 'budget refused: free boolean algebra would enumerate 16 items (budget 15); raise it with --max-enum'),
]


@pytest.mark.parametrize("argv, code, line", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_matches_the_recorded_line(directory, argv, code, line):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(resolve(argv, directory))
    assert (rc, err.getvalue()) == (code, line and line + "\n")
