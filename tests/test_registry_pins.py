"""Every registry and torus-catalog entry builds byte-identical schedules.

Each entry's schedules over a fixed grid of shapes are pinned as one
sha256 of ``repr(meta) + repr(steps)`` per cell, in cell order; a cell
the entry rejects contributes its exception type and text instead.  The
registry grid is the twelve ``(p, n)`` shapes below (powers of two and
17 ranks, ``n`` a multiple of ``p``, ragged or below ``p``) with roots
``0`` and ``p − 1``; each torus entry is built on its shape with
``n = p`` and ``n = 2·D·p`` and the same two roots.  The pins were
recorded from builders that wrote every ``Transfer`` object by hand, so
they hold the schedules derived from step arrays to those bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.collectives.registry import iter_specs
from repro.collectives.torus import torus_algorithms
from repro.core.torus_opt import TorusShape

SHAPES = (
    (2, 2), (4, 4), (4, 19), (8, 8), (8, 5), (16, 16), (16, 67), (17, 17),
    (17, 71), (32, 32), (32, 29), (64, 64),
)
TORUS_DIMS = ((2, 4), (2, 2, 2), (4, 4))

REGISTRY_PINS = {
    ("allgather", "bine-blocks"):
        "9475637944e114d9dea4a106219b0a61738791dc8ea4ee8addbfb43ad24b0d9f",
    ("allgather", "bine-natural"):
        "f62aff6188cea69149d4335f1ed7ef70fcda4f383ff8bc3c7e1e7acca91f2b77",
    ("allgather", "bine-permute"):
        "217f09ce649c529b23769decafb0d1247b6d569e601675068784e126bc495db7",
    ("allgather", "bine-send"):
        "5766af9305a33c629ae393fdfcd0cd2d3d4299157db12d64eb9ccd101ebbc38f",
    ("allgather", "bine-two-transmissions"):
        "118c1fc59818f73498ab4aa77a6d4b601d6fca83ba0da10199cdfbb1dce031c3",
    ("allgather", "bruck"):
        "dd020eb0b93039146635d9bddfaf4e76db5107cf39492c158bc2c632f8547edf",
    ("allgather", "recursive-doubling"):
        "5bca53815fcbf715078803e24d7db3e790676046570e2f894984f9b8e1da892a",
    ("allgather", "ring"):
        "433569548db26659e5f801bc771dd3fb1dc83eec90eb1f3d0e343a5f2867dc95",
    ("allgather", "sparbit"):
        "51829a0e638a08f3badf63cfbe0400d729240c2b5d1bb9ccc81ca983f9b9fc0f",
    ("allgather", "swing"):
        "9ef14f6a9fb8ce2e2c7a1579efd689cbb705791eff86b53f4fa5c1ab19e609d0",
    ("allreduce", "bine-rsag"):
        "b90b46858bbef789159dec91240136f4ea076d55fcb0a248208b460e97a1c843",
    ("allreduce", "bine-rsag-segmented"):
        "8803652c638500ae7493d91d2a0f4f9e8e329f5d316edb78fe6d7828ed38eed8",
    ("allreduce", "bine-small"):
        "6d991b0623f9ec5c726cc34981c0a0b83785617d87100a0976dbab10788ded06",
    ("allreduce", "rabenseifner"):
        "49e15e2886c5726bbbf913f2ee8434e62b191b813bf6ccf1f8c0dba9e7181e4e",
    ("allreduce", "recursive-doubling"):
        "8b210b852d1696cf405b4e16c3a94518d1c59217a1df39dbb04f8d1c9890af01",
    ("allreduce", "ring"):
        "6718dc5303301cf99ca02a61f5fe78e0d9a598066b7ce4ec92b8aada09975055",
    ("allreduce", "swing"):
        "eb32dfa5db0b8c30b512772448ebce363cf41b82da942f6cfb2bf07b06fa5c1e",
    ("alltoall", "bine"):
        "8992e3882becfdeb38401471fbedb59e650c2789ad220021ca58fa392622e184",
    ("alltoall", "bruck"):
        "11cb03536dc5fc4628d5e29c760acfa231890382a5a598d9d17595e3b0d00e0d",
    ("alltoall", "pairwise"):
        "aa9d8b88578595799fc815dde6b6b0c7b6916b1f71f0dfb77476448e0d1f03ee",
    ("bcast", "bine"):
        "4bad8780f7e4ba6b72a8c284af165df3bb743e11b7042163a9e63024aa5713ef",
    ("bcast", "bine-scatter-allgather"):
        "0a4240d6c08aa2728912ac46b742e753b39761c50006b5dec79ece752c7eff04",
    ("bcast", "binomial-dd"):
        "414c5cc8a2c91c2947da2ee38bba889d43b0e44d65a3a72c3ecc11bbf316ab37",
    ("bcast", "binomial-dh"):
        "b8979fa110a09251371cc4dbea7605454a445431a1d8b937ab82c35a21b064bf",
    ("bcast", "scatter-allgather"):
        "2688ee2c86900bc3732e3be78d222de87c5a1d77edd65a7fc2fd8b7342c24b3c",
    ("gather", "bine"):
        "81f4d49e07c2f32f666f2dd02b3ccb6f30a257aea8809f98756a67501b2c31ea",
    ("gather", "binomial"):
        "ec5483291ffaeda921196ce65d8fb053a58eb22b07b6b930c2ad29ec9477a4e3",
    ("gather", "linear"):
        "c3ea60cdd89cfcf5293c3d99eddfd4e2e423e0ab4e5bc4dd15e24cad610557fb",
    ("reduce", "bine"):
        "88735aac08666c33edc4a193de634cf05260d91f033205f62366dabb4954e87b",
    ("reduce", "bine-rsag"):
        "6982f18124d0e938a36d41a5ceb406ca4c11ab9d74fdce4e0d3108ddee930e95",
    ("reduce", "binomial-dd"):
        "d54aa1b56fe8a742084c3152a9bb53a480e783c44f5e89d35a3fdfee219b8fe7",
    ("reduce", "binomial-dh"):
        "efffcf09055637c04148b3d68c3850d5cda8e632c7de7f67412efab684ea7e58",
    ("reduce", "rabenseifner"):
        "319501e7894cc594955a2c84a110ee0efe0623cde828a9dcdaeb7706a0bb5b05",
    ("reduce_scatter", "bine-blocks"):
        "d837c3b91f211481b02e807c8ae4fff85bb5fd7ad59f3f6764d73e5c3aa8e8b4",
    ("reduce_scatter", "bine-natural"):
        "ee0a95f419d60ca14b58f592eb199810ce58fc75bedfa52029a13bb3d813e1e4",
    ("reduce_scatter", "bine-permute"):
        "28e004c372c07e576a7552d498f01f5dbcd177b704483667730cdeece9bffb27",
    ("reduce_scatter", "bine-send"):
        "1d0c45b42006d6caf71fcb8dcf1eeb9912f9434c9a566c58fdc0f89090db37f8",
    ("reduce_scatter", "bine-two-transmissions"):
        "ec48a98a848fe50a24f4d83784213517168743ed092ec8101d26be81f09ba6d1",
    ("reduce_scatter", "recursive-halving"):
        "e6305cd00f388b0ce92ee6d3395010e3e118ac8c2be530b0c7a6180dc6327aa8",
    ("reduce_scatter", "ring"):
        "c59b9b43b1ad5e0001387b21e7af5848d4d3d1668df2f4420d6820473f5e771d",
    ("reduce_scatter", "swing"):
        "d8bba15c87c41ca64ce0437e311e3a02feeca52af0b58c33bc4b48e80a347a0d",
    ("scatter", "bine"):
        "4082fba924ca8e5d56e11e21f8d9ee8603c69eaf5b31315f4ed7e5b73b7b4495",
    ("scatter", "binomial"):
        "d6d1d656d8b283ca1cf313004fea6c9837a66fb55b713cd1b3bac61bee44a37c",
    ("scatter", "linear"):
        "19ae8739c1262250c5118418de9dcc5dce4fe5d88d2b9cc694725f0125061d1d",
}

TORUS_PINS = {
    (2, 4): {
        ('allreduce', 'bine-multiport'):
            "c0ec5a2a399b2e12a880574d6df70062dba5b42c3cf915db4091f6f5c70f03c1",
        ('allreduce', 'bine-torus'):
            "4772d47288f4865d0f99bee8305979956e31bb90e49d3b00c1e518d89d6b1c31",
        ('allreduce', 'bine-torus-small'):
            "47556846302a20d8e2c1cf8a4381e9964597aef18d50ce922de93051799ca724",
        ('allreduce', 'bucket'):
            "efd86e0b9b4d491d2d0427d7f2a764b55daea4df6a9e025dddc78ae675abda3b",
        ('allreduce', 'binomial'):
            "6ffaec5169bde6e2df38919aaf61941aca27d6bf875bdfd1a3d3ec6db77c6110",
        ('allreduce', 'rabenseifner'):
            "e2b16f6e6b0bd08c61c66a93cbfe7cd4f33721a58088d65faa61805c89942fc8",
        ('bcast', 'bine-torus'):
            "1d8d9c7a6615870e26c3a47b49b2de2cd5a84460eac21afa42dd338cd467a53a",
        ('bcast', 'trinaryx'):
            "5ec8dc72687cbafe39bdd4a67f4b038d3e9cbfcf2908c60e1475ac996077755f",
        ('bcast', 'binomial'):
            "a3018b6249c0003f5d91a8d91e1d6b5659563dcdebcc5afd2215f0f710d7d467",
        ('reduce', 'bine-torus'):
            "1881fbd981fbbce5f35c2879b71e654d3ef972bb7b47dee4e0e0da7980e926c2",
        ('reduce', 'trinaryx'):
            "b5d3d75d83133615854d8ee15ceadbd48bf4eb62d7477284f9ac641225b22e88",
        ('reduce', 'binomial'):
            "bcf6363cf5774393532c200732f4ad7d4ee6967f7559a03b9a70f0097bb05253",
    },
    (2, 2, 2): {
        ('allreduce', 'bine-multiport'):
            "c99d18c5f8c3a658207b513a7bb6f7398fa55c44c882b8a0fdd0d1f66422a0dd",
        ('allreduce', 'bine-torus'):
            "f2bdd71560020d13dfeb7fc7672c559cff101dddc4b15842987866afb1fcc387",
        ('allreduce', 'bine-torus-small'):
            "815b87f6542a408046b8e910fe1e4250c350d6da985393b0c41a795caac32cf6",
        ('allreduce', 'bucket'):
            "58c05b9980084bf2ccdd1851828623c4c1fed919af82c0dc6accfd57317e4007",
        ('allreduce', 'binomial'):
            "3adc58ceef76d478d6af6dad6311d048c4b6ea848c4cbc369d900c241de2fbc4",
        ('allreduce', 'rabenseifner'):
            "bff5d1875dd0764feca8c3278889166ea9d820a7905bdaf1732ed7703f824868",
        ('bcast', 'bine-torus'):
            "991314b7a0c501a7a988585c79b64e9856683c7e19066ad82e79d7136ea391c6",
        ('bcast', 'trinaryx'):
            "2058b4f07daa0dbb709079d707f59c620cef4f2fce6b70e9fc2030163f05e688",
        ('bcast', 'binomial'):
            "ce9b50d98460386c2b29c5bc672542de7b9a6fd0494fb95c372caebeeaead95e",
        ('reduce', 'bine-torus'):
            "b9dc300a34f9f96b6ed94adb79a1f6aabd891cecc0030a14b7737df08589d50c",
        ('reduce', 'trinaryx'):
            "357c4110d9e33ee6000e42c67ec303ab632a20a856d0b05691d7e7ae04636a8f",
        ('reduce', 'binomial'):
            "db6e9c63c66d120756d391c552dc690ccb91341c964b685b736870959c9327fc",
    },
    (4, 4): {
        ('allreduce', 'bine-multiport'):
            "1242351126d8d6788b9b6f8683a93e7408651100eb0ee9cb930f9fa7449bdd7f",
        ('allreduce', 'bine-torus'):
            "3a3b8c2b645184760be59f1c7e6f212a6551928204d259431f82ede9b6caa3d3",
        ('allreduce', 'bine-torus-small'):
            "00249e184c6fb1fe8d3edfc2b23ef13c9f8d34715ef1ba202f31d961b47e983d",
        ('allreduce', 'bucket'):
            "4c1ff9c62dcdbd2a3a36efc81b693f8cafee35bf55a5cfaa8eb8bdb5470c9943",
        ('allreduce', 'binomial'):
            "4539d567dab688f59476860cac052c5b8a3904d77061631645937b6e9c2b6254",
        ('allreduce', 'rabenseifner'):
            "ebf56828aec797600d7777eeaa425b4dabbee8412586d14bde06574130db2c69",
        ('bcast', 'bine-torus'):
            "5e852acb9727d962144989b1199f0898e322ff944ff8d199bd6060cebc662bc9",
        ('bcast', 'trinaryx'):
            "ad46a2579e11226cf8e016643f5273388375662090c14312243d9ddc4519734b",
        ('bcast', 'binomial'):
            "074207574f1812dc29640975628020945c7c1dc22b1627442cfdfd0f71fe61cf",
        ('reduce', 'bine-torus'):
            "cb2831cd154680ee1f8ef6e2e14d1d5859c4844a14d0ba44ba6e18e2ca8bef77",
        ('reduce', 'trinaryx'):
            "caa7170add53f491082749d5d58c3835b7e3b9ba8d07322f464f5fd1f69ba0b4",
        ('reduce', 'binomial'):
            "36b89f16321b1bb0e4042ad251e2edf12b281e8a597e725d22e357340de4ae29",
    },
}


def _digest(spec, cells) -> str:
    h = hashlib.sha256()
    for p, n, root in cells:
        try:
            sched = spec.build(p, n, root)
        except Exception as exc:  # a rejected cell pins its error
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        h.update((repr(sched.meta) + repr(sched.steps)).encode())
    return h.hexdigest()


REGISTRY_CELLS = [(p, n, root) for p, n in SHAPES for root in (0, p - 1)]


@pytest.mark.parametrize("spec", iter_specs(), ids=lambda s: f"{s.collective}/{s.name}")
def test_registry_entry_is_pinned(spec):
    assert _digest(spec, REGISTRY_CELLS) == REGISTRY_PINS[spec.collective, spec.name]


@pytest.mark.parametrize("dims", TORUS_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_torus_entries_are_pinned(dims):
    shape = TorusShape(dims)
    p = shape.num_ranks
    cells = [(p, n, root) for n in (p, 2 * len(dims) * p) for root in (0, p - 1)]
    got = {key: _digest(spec, cells) for key, spec in torus_algorithms(shape).items()}
    assert got == TORUS_PINS[dims]
