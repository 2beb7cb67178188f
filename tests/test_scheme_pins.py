"""STEM, SBC, static SBC, V-Way, PeLIFO and DIP pinned byte for byte.

The schemes' access code may be restructured for speed only if every
access outcome, counter, LFSR draw and piece of controller state stays
the same.  The STEM, SBC and V-Way values below were recorded before
the miss paths were flattened and before V-Way and SBC gained batch
paths; the PeLIFO and DIP values and the heap-glitch campaigns before
PeLIFO gained its own batch loop, the giver heap remembered its worst
entry and DIP's insertion decision was flattened; the static SBC
values before SBC, static SBC and STEM came to share one block store.
Each case drives the scalar ``access()`` over a trace with 30% writes
and pins:

* the per-access :class:`~repro.cache.access.AccessKind` sequence;
* ``stats.as_dict()`` with the LFSR state;
* every set's ``resident_blocks``;
* the scheme's own controller state (STEM: shadow entries, policy
  modes, coupling roles, SC_S and SC_T; SBC: roles and saturation;
  static SBC: saturation; V-Way: lines per set and the clock hand;
  PeLIFO: fill stacks, recency, depth histogram, mode counters, epoch
  and best mode; DIP: recency order and PSEL);
* the manifest ``content_hash``, which also pins every public scalar
  attribute of the cache.

Two fault campaigns under the CLI's default plan pin the order of
mutations that STEM's safe mode heals after; two more glitch only the
giver heap; one more floods STEM's SCDM (SC_S, SC_T and shadow sets)
with faults and pins the traced event stream as well as the report,
recorded before the SCDM's monitor classes were folded into STEM's
per-set state.  The package version is fixed so a release does not
move the manifest hashes.
"""

import hashlib
import json
from dataclasses import astuple
from functools import lru_cache

import pytest

import repro.obs.manifest as manifest_module
from repro.cache.geometry import CacheGeometry
from repro.core.config import StemConfig
from repro.obs import RingBufferSink, Tracer
from repro.obs.manifest import build_manifest
from repro.resilience.campaign import run_fault_campaign
from repro.sim.config import ExperimentScale, make_scheme
from repro.workloads.spec_like import make_benchmark_trace

LENGTH = 20_000
SEED = 7
WRITE_FRACTION = 0.3
BENCHMARKS = ("mcf", "omnetpp")
GEOMETRIES = ((16, 4), (64, 16))

#: Case name -> (make_scheme name, make_scheme keyword arguments).
SCHEMES = {
    "stem": ("stem", {}),
    "stem-no-spatial": (
        "stem", {"config": StemConfig(enable_spatial=False)}),
    "stem-no-temporal": (
        "stem", {"config": StemConfig(enable_temporal=False)}),
    "stem-no-receiving-control": (
        "stem", {"config": StemConfig(receiving_control=False)}),
    "stem-shadow-mirrors-set": (
        "stem", {"config": StemConfig(invert_shadow_policy=False)}),
    "stem-ratio-0": ("stem", {"config": StemConfig(spatial_ratio_bits=0)}),
    "stem-throttle-0": (
        "stem", {"config": StemConfig(bip_throttle_bits=0)}),
    "sbc": ("sbc", {}),
    "staticsbc": ("staticsbc", {}),
    "vway": ("vway", {}),
    "pelifo": ("pelifo", {}),
    "dip": ("dip", {}),
}

#: The fields each case pins, in the order of its digest tuple.
FIELDS = ("kinds", "stats", "blocks", "state", "manifest")

#: (case, benchmark, sets, ways) -> one sha256 per field of FIELDS.
DIGESTS = {
    ("stem", "mcf", 16, 4): (
        "a94a1a8775bb3a8c7d4d2099026e3219b6949f0baab3bbf54c5ff4fc77ca62df",
        "5a51b2be0bf98c48bfa94acddf69a7021a82825357f36795d4ebe245e3663557",
        "5074dec33846eff10c0301c70d9eb36af261a58e69ed98e0495ef07349a4f0ea",
        "c05a0aecf7e129767a9af60de989faf63baae97eda06da07c05496e51fe66cfb",
        "58827919ccfd03fb1b3993eca9053701cea295b5a8a37e95c8f8be6e9c9a46a0",
    ),
    ("stem", "mcf", 64, 16): (
        "d98c9f8ce21685ec360897dfbbfa6efabf15ee943fb2d19ae2e5e94ad658d52b",
        "9dc444aef2fa63bddef4d98c2dc118b193c9d64de5480283239d724b4511fc41",
        "c3e0c44a362d5567153fc6c3d1d8f8e7a8b1efce86f0501f4a40a6e9698fa402",
        "ff1e2556e62cb48b111321a516fdab3a6cb72f7ab263d5cfe3d3d4b7a8469262",
        "79fc55a31efbc1d3399f6b5222da1907c96b4f3cd1d958900e5ecc8cfd603a40",
    ),
    ("stem", "omnetpp", 16, 4): (
        "3e6c426475644451860576ca6acee7064f829ad48f7761817e44583630e188ee",
        "244abbc538a1989e5fcf5d03c97163a69565591319d043a96dfe00db630b100a",
        "188777480a00a705ee538ca3057aa1363d6fb639823e68fcdb55e954ac302879",
        "7afce6671bdf7c79a0c2d5805077eedff1d1367871e735b8388502834fa580f3",
        "6a6c58f677c9550068436394932feaec1630660cbcaaaddc35e5f26adbfd9ebd",
    ),
    ("stem", "omnetpp", 64, 16): (
        "983fc0788456d996c74f1a3a802f266ec490248bc98d83d8e384e7a58bdc3f8b",
        "134baea38c0bb920599f5ed31a4af4cab5179f81b086c1baa7539977b4d6155e",
        "b25556d20c3d4f05300aa4bf811fd4c8701e2f814afcbb10a43c6c76d49e837b",
        "aebde615bb835cccdb79ac20329855039d5c41c23e2060af0c0a69001ccac280",
        "3de4b8ac3dde16be1ef8137d59a319ce439a8c7c1022dccbbb04a2596c995aee",
    ),
    ("stem-no-spatial", "mcf", 16, 4): (
        "19c7092173782831a4bb2db27a5cbfebc9f2f39878c8fc0033546bcdb03a4aad",
        "bc62019dd0b0424b9340886ff0e38986bb83fb104095e4812845c30a8286eba0",
        "8f94dd37ddbc3a089767ae1f63912a1de3a68e652b97bd5b274dcbd02b9f8083",
        "36bb421de55dcd5e4004bacfcc49624b61f883341d2a0eb22669b128f4a1fb0b",
        "6bb898e4ce4581a066e154fe98dcb8abad151719572d56fe82924a26049b82a2",
    ),
    ("stem-no-spatial", "mcf", 64, 16): (
        "01c4b124bca1e3fc61831ec298c4bc3d47453b98ddc779ddea83e2eae1aeab39",
        "f3c8a376564e94c38b7619e05f8b7803c0800a7a1d0ebef2a321ddfc52abbd18",
        "1a864dbeaf57b96422b8499709feda099ebfbbb5522f559e56dbcac416c31bea",
        "8e5aea24ebce902699cf1a58891ff2b29c36306a04d81c2e3d8a022ac3ba3c68",
        "4097f519d26edfe49bfd25a128a9f65aced21c3622c1d4dd606a1af65d6aeafe",
    ),
    ("stem-no-spatial", "omnetpp", 16, 4): (
        "d1d818db1659c526602a64a83fe468a5b088f36d53a561ef85c210c1d82d8951",
        "6cb97991dab29abe25af1504b005f8844159dab96f0fbee4b8837ededdf2edb8",
        "bd4eba2de0776bfaa28191e1fb46ca732acbfbc13ca5d8e226863d1672bd135b",
        "0d5bce980a11fc689d1ade26d9d92f3a53256c871bb1a042c11fce6f4a2bfba0",
        "745a443705eca807780678c03b09b75f529307dc9fc45efc4d16b7021b4d7932",
    ),
    ("stem-no-spatial", "omnetpp", 64, 16): (
        "d458998aac60e0ec6bd054e1a48fdd23954810b5ba44c69447c2eb0c1869b5b1",
        "8f39bb1ce30699aa72801f9f775006a9aa7f521bff41317a8e84fb6a4e97871e",
        "60d85d822d0b360f9f1adf5f99976054dae3164af73069487de472394138595a",
        "a21dde35b25586fd213f4bf8f4fed909cf3ef179b26c83c34925ba4ae269fa15",
        "323e453c38c4e1029e333e2bf8ec484f6678c18d688353038cc14fee50659b02",
    ),
    ("stem-no-temporal", "mcf", 16, 4): (
        "6ec228f4886a0f5b1ff6bf028f5330401d7b5bb37b487daf2cb1069cc6e604b8",
        "6bc5bf8e8d202f402981773d8f26a92afa99c861875dc42cb20c8b12f66838d2",
        "b32053e4da98a86af07d5d8231984850b53d42bbf314e20c3ff96de539c19c36",
        "05e65352921455c3d8a8eae4f89a9b97dc9369b17c0119e609ec21a0c033f646",
        "ef396e1278a88bc0053883c41e1a59769b72c25b3d42c662b5a843603cdcc6c4",
    ),
    ("stem-no-temporal", "mcf", 64, 16): (
        "b445ac5206961a385c6a126ed5bb0596515c25df07908c8971966a193599c247",
        "f761947ef0f9351d17173444a4130ffb9d229c4474f53421a950870318f7e93e",
        "0a0bb5f047a7fab212f70e27e209f50e2f6df92d3475a70fa9f25074c3194998",
        "d8f9bd03e814747ea3279db662397b5783b782973135fc411c3038d4b5bf441f",
        "6078b73669d64009f8e190d8ed8457d7666f10b0fc0bd806783f5263e8b27578",
    ),
    ("stem-no-temporal", "omnetpp", 16, 4): (
        "a134a710cbe18a4737f1f11f9c919bdf5a39fec64c4185962a925fb286a19410",
        "d9a6abe87a04d68b905b2e652aa7286d14c38143895487c7439f6098459a949f",
        "914535a10dabd7e8d8cad7dbb73f598532188ccb4549f6afb1526362197ef752",
        "3e25291525efaadcab5206698a9182c6bd1a7e8180426b26a62e1d53dbdc8550",
        "44eff24e3d3e8a510d298642e5b414235226887b3a98db9a6bd3ca1fa8881a16",
    ),
    ("stem-no-temporal", "omnetpp", 64, 16): (
        "cbfe03654c9105abc7fe4c882a7d68988be4fb7e62f77b7035bd11ffa29eca52",
        "940cc50d9e870b8adb0bd989db9ab87b659851e0c683b43534ca88eb819920b7",
        "d736a5d574edf62633b24f249689dd3b71238cd794de1c28272d5f99bb723f88",
        "fff20719842149601bbc542686dc360ace85ba3fb528ca32ba9d55ed54686b3b",
        "f2323bf0d749a8dcaee45f7a6965ae2ddf94eb8e56daf0d9b717852bc61fe22e",
    ),
    ("stem-no-receiving-control", "mcf", 16, 4): (
        "dd3fc3ba13b5504f83aef9c66d84250d393018bfb8a3d4ee620f54a67f5bf8ad",
        "d2470703a70796bafec3571f27c7e9c3363cc5ccd0aa1e3d29d63a336dd0c5f9",
        "cc07a1462319abcb1be4337210b14650fc6ec84415b7a3d3bed058fb2669085f",
        "8470e34005c691807694ef0be14a622cca29ac83b0c209a5dba4148b6b64fb8d",
        "6f5505fb144f1759532c43f56c1e98c56b84307fe806979256149c71f5b3befa",
    ),
    ("stem-no-receiving-control", "mcf", 64, 16): (
        "78e8856bc103c6061b7f844d84bc04213a9e5dc2921c4f823c93a9abd842d2fa",
        "8829b186aa13b47afa4b67ddd273e0e92290b804218119ba9dd7aae5d6178792",
        "2ffe6d24503c295feebb3c6d6f278afde405eb729168664ed09692b824afc55c",
        "f7f3c2d0bbedc5f2492fc1d496a79f83e7e3a44a14f9cafbc2f2f646e3bfe6d6",
        "6a1c97e3b3e8f072b03cb1287eb514b2e46200bea0dd083c04383ee323caf221",
    ),
    ("stem-no-receiving-control", "omnetpp", 16, 4): (
        "7d3732396d8c14421b92812f5ba0ccdbedaa964914893fd4216fa5b0bae4768e",
        "4ed2faa7b90aee048b700c0e4fc2e1fc6127d36250c6506250da7dc6a5d78d56",
        "e5eda816a748e90cab743f68c52a04a7ea41605dd9fa773c348f3f6e5daaea48",
        "27ed03b00f8e3634e5f861186707ee7a521d29457d2ae85dab0b462bd290d210",
        "2d6829181924a85a208a284d4d4b7658ea144a5a5129263a872ae6d44411b583",
    ),
    ("stem-no-receiving-control", "omnetpp", 64, 16): (
        "c7d3d3c06ade05424c245866cfa45797b3febf5e783c2a8268ef08fd96ea3d73",
        "83eb0d820bb8336cd273036d0d271124391d9a80b472deff809c937d9ba4ccfe",
        "cbd7de1a64819a146be1ab7ceb3e78ac9f5a3c7796f1dc6be22883bf9cbe809a",
        "b6f112d0bec8106b3fc578b8c7889a76310386b7e895cc92b4d9b7cdab5f468c",
        "cc9874489e9fa618546f52a0d1e08362430c14f6042c95b7e86f3ecf62d13a54",
    ),
    ("stem-shadow-mirrors-set", "mcf", 16, 4): (
        "9a2329c860a7c55242eb29be4df15cb8f86e78453b81bd0220f72f7057224fd2",
        "8fd3e6939a7493dd5b1211a96c2869228ffe09f352789c299168db2f880c28d0",
        "1ca0c900db55a3b8bdc55e4f9bdd99e611a4d8f13f29b8611142d2750e85ca55",
        "cc81353eabc763f87a7501e2756416ee9d8ad3266e703a2e64ca551b596afe33",
        "edf4de51a8522d12d4543b9d9bed37302a5901b79abc998c9ca919b04d33bcf2",
    ),
    ("stem-shadow-mirrors-set", "mcf", 64, 16): (
        "b20be7f917b66502e2ed2dac3a2dc68698f1892e270dd9b13fc07cb3a13faf0e",
        "3b300e26d4acd2ab1c03a774bdd1f65b6bfa08283b3d9f8339c87a6685396ceb",
        "020a4cdd3d99075ad5efca27768435ebb496700bb1753dd4a4fdc7a84bdc7c34",
        "9a7321afe398282e89118d5d69165d2efcb7d32b1644b7a8021c5711e0d5c2e4",
        "c73cb9a92425bc8ac78cd3b8cffcb8750f86cb929c5a640c287d111b8e3428ea",
    ),
    ("stem-shadow-mirrors-set", "omnetpp", 16, 4): (
        "c015d4f60676e60e45c2585363fe1e479ea7824efe8ddb8f97b96b05de603a4b",
        "9cc395979574e7abeffff5a59e7a50e75be63a1b4e3a7035b41cd5354dd6c9e4",
        "c54cdca44097792d518664c78147dabfec82f9adb9865967feeca867f9d8ab87",
        "3dbbd7757f0c8efe6c69e91f22e8031a87cdb1008eeaa63ac07aee77f433b743",
        "3611db8f8eafb24617d11c30bac26629aee710a441e0b43cf2b21c4609d0b8a3",
    ),
    ("stem-shadow-mirrors-set", "omnetpp", 64, 16): (
        "b5e0ff1125c67754313191cdb745503427f13270d9df7e9601cfe131dc22e225",
        "30c2a1ddc0b26f24bf95e2cb8dd48554d3e8ea7a1b007dfd6d024534b2770045",
        "a385e3d006ec814953cccd9f909469134901578e2bc83b1fc91cc02791e97572",
        "e3e8e5769f6f536460854f80460bf58a719fbf304f57c99330b7e4b669261bcf",
        "e721c2ff90eedbae65f52aa1c9b5cebee65cc5097a1e9c6cc8c8334c30b0bf5c",
    ),
    ("stem-ratio-0", "mcf", 16, 4): (
        "6d996b71f4b09861256757b54903d347780dbd54d416552b50c00ad5be63ae24",
        "bb57a91e5abdb0dbbd52b6e3b4c725e6095be985ffe05862752a9bc29eb0c002",
        "9c525be1fdfeb92c017be08b8333e903b3c413da7687e494575c68c1d336e015",
        "1c91c7c11392979e7e26b9946eba88505398e5bd1e6ddb67a1442720ddf85dfe",
        "31976fc19ec0f09f6897f0ba26b0fc2517e4c96077af8ab3d0006fe5d70717af",
    ),
    ("stem-ratio-0", "mcf", 64, 16): (
        "3cf19d64d95064f315f5b6acce193b02597f5ddfe97bbaa001aeb10dadcc1ec9",
        "e09f1d8599fad1aa45c1b5037e0eb4acfd916517cd4dc9ee7ab63ee7f1d3964d",
        "190bc67c28ca575e0bcd139fa8ca683f23d631b79f3487e1ba71860f5581c274",
        "c28492010b3212a934eb76c5651456176cd1bb633ae74c50181788309dbe6920",
        "f81f2ad6351d389f5ee3896cf41c59d2287b286f7760ec55fb3996420dd565f6",
    ),
    ("stem-ratio-0", "omnetpp", 16, 4): (
        "f988e578a5557ba0b5a855244470145bd2d5617b701e50208091e3df4a7907a6",
        "821320a8943e31d205cee31fb36403d32541ddc105c926143684282c9e84efa7",
        "93f513dec35570998ccd3f49aef256b0b414c380f64bb0e2a1570204827611be",
        "bde1726fd7bfbb8b4d8aaf98af6ec3721212777b81e46acd238132ca18c4d36b",
        "a8cd8c7d7c3c7ea09b6b031c863fc07d482807456d49c0276ec12eb0e1c85150",
    ),
    ("stem-ratio-0", "omnetpp", 64, 16): (
        "9a486cb5b6da7835e21440ac738b4b3235fe795a3bc2b45fdcbb5290a24b416e",
        "514ae513a0a6d2dde4bd6ea77059b1501a76edbc215d708df4f9b7a6b1e8ddf9",
        "2d9546a3cc683c506be8ca695a0a9017f74dd71dda85aa1c2ff7bd3ecb2dafa8",
        "5b57f0ef6e7eb6718bd6a756b854aeddb119ae0131f553ced027fc35ecef6e59",
        "97a43d67f19f1cdb6e3554a7f8014b8743364842c4ecaf2e31055a790133c83f",
    ),
    ("stem-throttle-0", "mcf", 16, 4): (
        "9a2329c860a7c55242eb29be4df15cb8f86e78453b81bd0220f72f7057224fd2",
        "8fd3e6939a7493dd5b1211a96c2869228ffe09f352789c299168db2f880c28d0",
        "1ca0c900db55a3b8bdc55e4f9bdd99e611a4d8f13f29b8611142d2750e85ca55",
        "cc81353eabc763f87a7501e2756416ee9d8ad3266e703a2e64ca551b596afe33",
        "7fa7f25fced2ab95ead34cee867ea76eb7a364083c0f3ddc4d5ba19a6a875a96",
    ),
    ("stem-throttle-0", "mcf", 64, 16): (
        "b20be7f917b66502e2ed2dac3a2dc68698f1892e270dd9b13fc07cb3a13faf0e",
        "3b300e26d4acd2ab1c03a774bdd1f65b6bfa08283b3d9f8339c87a6685396ceb",
        "020a4cdd3d99075ad5efca27768435ebb496700bb1753dd4a4fdc7a84bdc7c34",
        "9a7321afe398282e89118d5d69165d2efcb7d32b1644b7a8021c5711e0d5c2e4",
        "a49c684f005cc1ac183b45123c1f5f2e5eadefa5fcb04d63109770677c24b55e",
    ),
    ("stem-throttle-0", "omnetpp", 16, 4): (
        "6865c42985c100f7411d3e0632187a84b3ea6050b17090fcfe3d3301bcbd5b80",
        "188845856b7cc28a5a5362032c384e11d275bea39db0728f9fa5d807be3b1d40",
        "b74c6f4a4f6da6992730f34731622023fa7bd53d92dcf9363ea881307643f2b7",
        "edc956b3c259ea8fb20688364ecfacc52ee17f5b2ba53294f67da0d92f3b82c9",
        "9c1737c04e4744dd4d6e3a5b6ff439c8757215bf8eebf44a52644239fc4e1056",
    ),
    ("stem-throttle-0", "omnetpp", 64, 16): (
        "b8e37e4dfaf0e5ebfc1e216b4db2f6d1fa642b297567d00cc5c450f60fbbd78b",
        "05e2d0b5d44185d110957758a5a5c763b1abcceda8c44d5d3d02b4b458eb428e",
        "0540d7679e6ede4d306dc08d7e7fbf54fb783942519b74f46250ada10ff580de",
        "f296e5f82812dc95bf242badc3b4cae7a00d9df30c2da6358b648eb3d99edf8b",
        "d0ca50560fada79a5c366ac1bbfe40d3ad1e753d8a91f260e2e2b08a561df7cb",
    ),
    ("sbc", "mcf", 16, 4): (
        "888b7c59319212fe7fa9d55f5cafec7012411e74d45e1787a5fa4c5c4e24b774",
        "18f362bf232310883a15fc737544fcf42847c90bf32a0c4b6081a72b64985cb2",
        "123130c445ea92962eb9b12eb19cf043ee1202a4cdb25dfa9f04d129a13d1ada",
        "ff46aa789049c7292a5fe70f5385ca16bf8c0a6e73c8b20d1580f6a8e800d917",
        "a9b2f4ef5df75b3eeabb2d5fefb0618d92ea811e5254700e7a070af34e502977",
    ),
    ("sbc", "mcf", 64, 16): (
        "3ab371f0b724a6914e8c7a2f56645a4d383128cb68e3b187089da826451f1f4e",
        "9c95169869620ab1cc7a9d6e0fe87af206985f13c651d77a637fa8b4ff09a1b4",
        "9080fb08572539a7683325824250bf6caed0274a4125e82b7bf4484e4639580c",
        "086bdfa83a3bfd79d89385924139438943d509deee03c621fcc5fcd13679d530",
        "b084719b3a616595a02c09f24c7de81be7d16397c3b22b3513c8301fc23ecfaa",
    ),
    ("sbc", "omnetpp", 16, 4): (
        "0a2267e08d56ea6359eafc04020f45e2f5bbeae4e7be948b67e11f57f03f0df5",
        "4a9dc63446db7c0a393615535052f838c78d3bae76996833907d0344d8b514ee",
        "807424a7227512b196f8efca770cb9321c16af8266a037f88dd93d155ad19024",
        "2a5eab0e41ee4b8738a51d6e34e21e10885af3fb5ec75bbdfc1227a423ef692f",
        "7bb12525ab9d86ec307991a7cb1415207f9a63237a03e29025bae5984844cadb",
    ),
    ("sbc", "omnetpp", 64, 16): (
        "6708580e7bea041023cb1da0399d66497605ae6bd5109224f134db1d76cb9034",
        "c0c7238719e3cb615801a6a54f18d6fdf290fbe77fb177c0088aca540664daec",
        "422fe13cc7dd5305b33b42d6af0470110c4682d308342c8fa2146d05e09ed2c9",
        "e74715e497879a9dc33963de544e1f1b4e504da546d283a6599b87451c0023f1",
        "296ae3d978456cbd473182ae9881d57c6c14f8c5860ec99d6a50b16057fd233e",
    ),
    ("staticsbc", "mcf", 16, 4): (
        "718f271da55ced23e9943fce40f61833ae00a86299472a6b9f4fd6b49572f8d4",
        "cc599e3dc7d8607a7d24f2b7bd36966c6efae19bd9efb79878154135a1e299e4",
        "e0ba625697519cdb8f58dc6a8f702f3696898bd92ea43274fe12be4a3a0879d8",
        "52294a2502633ce535befc9d62bc1f0e331892f341f8e60d670c69e8ad2039b8",
        "17402e9666a58e1f1e506c39657569516b0e02885413e715146299d092481512",
    ),
    ("staticsbc", "mcf", 64, 16): (
        "ddc459feecdf4a3cf1d0b3978844b32b9c399ea4ca0f5bdc5c62b3e7b7383d60",
        "8750b44ed73abac73b04308bd3abd40028e9645f53b9c7be50bc37f2a72f8343",
        "7ce1e02c3bf987a8722d90caa72ab4c9c956c74ce9ca36864c7ce3a828422d7f",
        "f5e30f2ef9eda38a6f1d136cf051f4c74b9a0a29d5dd95d16cbee2a287c4454c",
        "ced8699aa2fb80664fa70d23ce998d66c098120a9ceb361c4c991f1351b577fb",
    ),
    ("staticsbc", "omnetpp", 16, 4): (
        "6d028aaf81a46ea96a1032c29e8d7e938fcd846129289b99fde3ae14eae0210f",
        "2b0445fc5c366ec288a23e6b49d2c60aea7ee208fceaf894de3865935c29f330",
        "64298b3cbe2acba7c7e81a45c8253b6563d3bdc9d87a7d93989e4c5e3090feef",
        "15395f68b88b259a7b82f837314270041a0ce365889c0adf0a592a7cc4fe2bfb",
        "6c56ad470b9e772a9a7b8ef7f7386bc8644e4e339cbd4b368dd74e511009f66b",
    ),
    ("staticsbc", "omnetpp", 64, 16): (
        "2e9857d0b67374e30a1b64a1b0f652d2b45b9ffd2991089f3479261ab010b1d7",
        "96f5d843646a5e16287544a0fc16247e382bc52da18e2c9c9074392b3c9e3fb5",
        "0ef184b63e7bc70b333edde944939d570e2deb22bee3cff445d6e23e4f463a0b",
        "10239950b7d52fa0d41b57c8a817f64893fa66b4814a097c8d92a1e7af8a8c25",
        "78fd5e9099c804b78940460a767f0fd86fba42b917215d21b9e4d37efd2f98df",
    ),
    ("vway", "mcf", 16, 4): (
        "fd02ae504a7d971fb9fb13d54918e1281aaadc8808be0dd0109d8f24313cfe34",
        "4b7e258a9c2f77b0d69b84b41f2d9fb319a81db4d03af0deb0435d0c51188ee4",
        "e1a47091b273944f086c290d50b8f70ab69642d19d16f1a8d1fc4707274a3e97",
        "3a832f199d3468f78371fb98e9ded9541ccadb66902adad301777a2023654330",
        "0812b14f6b6f67af23f4d3177abcb3e0eb19557c36eacb03eca93511808e1553",
    ),
    ("vway", "mcf", 64, 16): (
        "373d52b8c316ad9e3d253e986859a828989824cb20d4b6505dc018a77bf7a466",
        "a0cd3ef654e98ef6838a77259fbd750e6a00860d98fd43130c69de6d04011997",
        "2da65a9b5637e0229716e57ee7e7fa2f0c9fae8bb0cf931e9ad982d6120688ef",
        "788bf09f1c214e552c618fbd9dd8ed8a29c563798c238363808baac09b7eb67a",
        "071cc1215d801b5dc63a23ce97eafcbee73b145c26be089d603fa6c97d2f4c08",
    ),
    ("vway", "omnetpp", 16, 4): (
        "fa9c0996e972191d09493b09397a01ed45e332314cd87e0f77740b98fe3c9b49",
        "1492896eb6402b6668d393b1fe24eccdedae075291ff19f0b2005d5891826b06",
        "49bce7829f1f9106e2ae52cd8b9b27004d59ad1e03e5f35a439651f45320c1c0",
        "dbc7c1a20671c9073c92fc12ad64bbb0a099a4a8bd2b74de5837a9a72e2c58ab",
        "0b690f34606b5a97d5d95f4209b304fa0ea5cefc8e69aa73a440bef502e001ce",
    ),
    ("vway", "omnetpp", 64, 16): (
        "23093cb1258fae8f7784c7c7fa39854ea02d68492881ee0c35e498c985856896",
        "30b2309e9c36e27c48a15ce7aab62a318924b524d6fcf1d82fb5c60ca1da6969",
        "a3928a11b33e788fafb3c87514465f7f783e62553fa213ac57a7049d44013560",
        "ee923f321fb13e00a7da71c82ef93e055cedc53ae3772a6e1b49f05f8fca0ac2",
        "9d06ed2ce6a83c50de0380955d3b3d0660aa59d86f05dc3545642e68fd2b0ac0",
    ),
    ("pelifo", "mcf", 16, 4): (
        "16e84ed27e7b11662407139c7dde2df14a4389e71fbbffb776b082e1f28cd976",
        "fd6e457d85aae94548d685fcfeff99bbbe54af362e0d7beb5a800a1e9c790129",
        "39d75225507f94d1d6cb411496a8ab9a0a71acc8412ead5a370e0b4c89a2582b",
        "54513d6faceabbdb62541aa455468007d98536213c36e2c9a87fb53bad23946d",
        "c28636cef05e756b8096ac23f692e24f4cada461fb985073795f289c2b24cb7e",
    ),
    ("pelifo", "mcf", 64, 16): (
        "d01a1547f9eb7843dbfeb53ae82a9f46d0e244e9387f10d76204848fa134d71b",
        "26d05001db8021b25043e50316e5782b92e7aff451bef7e703a43a29d26b315b",
        "8018657cc836d7d85d3646cca503b1ee01eec4d3b7203216c49895f8c97432cb",
        "a4006dba6aa4d7e861632d080b53395abe50f5918de537c1c4aae07f38296bdb",
        "3fcc6ee38659ca66ecdfea8258f756fa1e99c92cf8ba89682dd19884709898f5",
    ),
    ("pelifo", "omnetpp", 16, 4): (
        "0ff5cc451147a0f49e81c46e5835d6278b51e7f557063971202ca46514efa15e",
        "581ee64f82e050307a8ccb562eb5deea439fb3693340a5fa5699009b7380a60d",
        "0b16f22e6a369024922b762c913c46df763db46d83f22442854d456977399e5e",
        "53f9b7928ee4d3ba30ffa9b665ee3975c3b35412ea0a85d1fbebec7c5779eeee",
        "ef1496b931d50426edd76f90c6bb61fef7efe8d0e69082b16b42e94f6093f1ba",
    ),
    ("pelifo", "omnetpp", 64, 16): (
        "c3b5cc0d2115c686a513f8e7e5cf52ac001110b066436a9361a0a105fc51e5be",
        "5251803e1b2085f4586be4aa29ee15549fe77618735ab247a287962044981fe0",
        "2d8d520ff5c58b7ed0d2e53bd7245833383306ac6909f0f4fae32cb864043b37",
        "f4d8275737ba1747df74368fe7025804b4d87f5cf9e618fa0dc30b68f65abb3d",
        "36bd27eb6bfb060a5096bbf37217a70f0e9ab37c290862ba51eeb8951a59a949",
    ),
    ("dip", "mcf", 16, 4): (
        "e71240107d52752318bcde865d466e8271116f8a86168660b8d785cbbc78ec8b",
        "fb0cc47e93056dc71d580b41e6b2bee2cebd6c1d58be6697a737196efa3e4cca",
        "34015f3a3ba538820ce6cf355671b8f1fe26588a9a94360964d8c1894edd5664",
        "b84f7e8b0731aa807161dc9a9dbb7fff845cfb1d78d521e9ae0a3d100c91ac4a",
        "7ece832abadb1ee7e739b8f4a8c2eeb6daa4744f472706077cc371d525f259fe",
    ),
    ("dip", "mcf", 64, 16): (
        "bc5a90a80ea1e1b5fee9ae8dcb60f6d34a04f1e37a913d9bef79ddc9e459fc6a",
        "18a8e9eeb264f14ce4589b5a2914a5c6efbde21fb9908d6028b7181a77884012",
        "f32fabf7cfdd536a0bc22e187ab1a078d9d6a50e761a386ab00f31381774a19f",
        "1b91aac2501f1b5dc8228dd5b2b19ebdddb4e8f77be84a3a8dd50820ad02102d",
        "00a2f85a00bd6aede06bd67f7d9bd2d529fa9a4c0eb096d6018a8151f3be1057",
    ),
    ("dip", "omnetpp", 16, 4): (
        "6f6975d0e37cc2bfb88779ac223bfa753de42c3ab81b5657aae51d106f22f918",
        "1758acfbf063aa2551c5ecd3f6f116ce9e488aa55ae2bbcc695e19598455b699",
        "e24c76f17eeec6d1554e4a0f0dadc6b46543a3a872ed17a8d9e3c99319196190",
        "227e7c664ab24a80883753bb31db6a23724da9adebbc0c4a729a0cabc1810bf3",
        "fc86f47e4cb79f8dba7a0df4870573c6d9720885dbe03ce0f656b58d8980e2e1",
    ),
    ("dip", "omnetpp", 64, 16): (
        "4698b6fca36ce3a077e16359615632c3f7cc9381fd1193dcac7049b49f493277",
        "8ba9ab72b01e5ec384dac5690919ec660abaa76242d9db5bc32973b44b616673",
        "21c321ef8bb4d5be8749c8b10cf37b50f7ae3d6874462c3e40148fa95d47d4ad",
        "785ceae0196f93951ef381cccf698840b00e0d76d8d273f96438f8eb3a604c66",
        "bc3a6832009c2c4ab17ac1814d8a5eb35406d454dca5b754f2f20a6498012b3b",
    ),
}

#: The CLI's default fault plan (``repro faults``).
FAULT_PLAN = "sc_s:2,sc_t:2,shadow:4,association:1,heap:2,trace:4"
FAULT_SCALE = ExperimentScale(num_sets=64, associativity=16,
                              trace_length=40_000)

#: Scheme -> sha256 of its fault campaign report on omnetpp at seed 7.
FAULT_DIGESTS = {
    "sbc":
        "b660c568e8370111946633b28f66e5ee9c8f8c990efd69e75f4b5ddeaae808ea",
    "stem":
        "cf76aa67530f4a908d3baeae85aab2925d2acef25163136e3ba14dbf63acc94d",
}

#: Twenty glitched giver-heap slots: ``force_entry`` grows the heap past
#: its capacity, so later offers and pops see more entries than it holds.
HEAP_FAULT_PLAN = "heap:20"
HEAP_FAULT_SEED = 3
HEAP_FAULT_SCALE = ExperimentScale(num_sets=64, associativity=16,
                                   trace_length=20_000)

#: Scheme -> sha256 of its heap-glitch campaign report on omnetpp.
HEAP_FAULT_DIGESTS = {
    "sbc":
        "1862fd522fa3a8e7804d36005d4b632979f5eccfa628d5c62daec5b364d83d43",
    "stem":
        "77ff7de297196a6f82dc9b85bade3635c2d13c3f4064a8d2482fb1a4ea12279e",
}

#: A flood of SCDM faults on STEM over mcf at seed 3: 162 applied and
#: four safe-mode entries, so safe mode's SCDM reset runs as well.
SCDM_FAULT_PLAN = "sc_s:40,sc_t:40,shadow:80,association:2"
SCDM_FAULT_SEED = 3

#: sha256 of that campaign's report, and of the JSONL event stream its
#: tracer saw followed by ``Tracer.events_emitted``.
SCDM_FAULT_DIGESTS = (
    "bf6e12174d269c87af7755419697d48474980896ad1006af8910617471f9a4e5",
    "061ffc71579af63b44bbfccf3de128cb1aa6be78d69b3d23017743bac7251142",
)


@pytest.fixture(autouse=True)
def fixed_version(monkeypatch):
    monkeypatch.setattr(manifest_module, "__version__", "0.0.0+pins")


@lru_cache(maxsize=None)
def _trace(benchmark, sets):
    return make_benchmark_trace(benchmark, num_sets=sets, length=LENGTH,
                                write_fraction=WRITE_FRACTION)


def _sha256(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _stem_state(cache, sets):
    return {
        "shadow": [[view.hashed_tag for view in cache.shadow_entries(s)]
                   for s in sets],
        "modes": [cache.policy_mode_of(s) for s in sets],
        "roles": [cache.role_of(s) for s in sets],
        "sc_s": cache.sc_s,
        "sc_t": cache.sc_t,
    }


def _sbc_state(cache, sets):
    return {
        "roles": [cache.role_of(s) for s in sets],
        "saturation": [cache.saturation_of(s) for s in sets],
    }


def _static_sbc_state(cache, sets):
    return {"saturation": [cache.saturation_of(s) for s in sets]}


def _vway_state(cache, sets):
    return {
        "lines": [cache.lines_owned_by(s) for s in sets],
        "clock_hand": cache._clock_hand,
    }


def _pelifo_state(cache, sets):
    policy = cache.policy
    return {
        "fill_stacks": [policy._fill_stack[s] for s in sets],
        "recency": [policy._recency[s] for s in sets],
        "depth_hits": policy._depth_hits,
        "mode_misses": policy._mode_misses,
        "mode_accesses": policy._mode_accesses,
        "epoch": policy._events,
        "best_mode": policy.current_best_mode(),
    }


def _dip_state(cache, sets):
    policy = cache.policy
    return {
        "recency": [policy.recency_order(s) for s in sets],
        "psel": policy.psel.value,
    }


SCHEME_STATE = {"stem": _stem_state, "sbc": _sbc_state,
                "staticsbc": _static_sbc_state, "vway": _vway_state,
                "pelifo": _pelifo_state, "dip": _dip_state}


def case_digests(case, benchmark, sets, ways):
    scheme, kwargs = SCHEMES[case]
    cache = make_scheme(scheme, CacheGeometry(num_sets=sets,
                                              associativity=ways),
                        seed=SEED, **kwargs)
    trace = _trace(benchmark, sets)
    access = cache.access
    kinds = bytes(
        access(address, bool(write))
        for address, write in zip(trace.addresses, trace.writes)
    )
    set_range = range(sets)
    blocks = [[astuple(view) for view in cache.resident_blocks(s)]
              for s in set_range]
    return (
        _sha256(kinds),
        _sha256([cache.stats.as_dict(), cache.rng.state]),
        _sha256(blocks),
        _sha256(SCHEME_STATE[scheme](cache, set_range)),
        build_manifest(cache, trace).content_hash,
    )


CASES = [(case, benchmark, sets, ways)
         for case in SCHEMES for benchmark in BENCHMARKS
         for sets, ways in GEOMETRIES]
CASE_IDS = [f"{case}-{benchmark}-{sets}x{ways}"
            for case, benchmark, sets, ways in CASES]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("cell", CASES, ids=CASE_IDS)
def test_scalar_access_bytes(cell):
    digests = dict(zip(FIELDS, case_digests(*cell)))
    assert digests == dict(zip(FIELDS, DIGESTS[cell]))


@pytest.mark.parametrize("scheme", sorted(FAULT_DIGESTS))
def test_fault_campaign_bytes(scheme):
    report = run_fault_campaign(scheme, "omnetpp", plan=FAULT_PLAN,
                                seed=SEED, scale=FAULT_SCALE)
    assert _sha256(report.as_dict()) == FAULT_DIGESTS[scheme]


@pytest.mark.parametrize("scheme", sorted(HEAP_FAULT_DIGESTS))
def test_heap_fault_campaign_bytes(scheme):
    report = run_fault_campaign(scheme, "omnetpp", plan=HEAP_FAULT_PLAN,
                                seed=HEAP_FAULT_SEED, scale=HEAP_FAULT_SCALE)
    assert _sha256(report.as_dict()) == HEAP_FAULT_DIGESTS[scheme]


def test_scdm_fault_campaign_bytes():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    report = run_fault_campaign("stem", "mcf", plan=SCDM_FAULT_PLAN,
                                seed=SCDM_FAULT_SEED, scale=FAULT_SCALE,
                                tracer=tracer)
    assert (report.faults_applied, report.safe_mode_entries) == (162, 4)
    events = "".join(json.dumps(event.as_dict()) + "\n"
                     for event in sink.events)
    events += f"{tracer.events_emitted}\n"
    assert (_sha256(report.as_dict()), _sha256(events.encode("utf-8"))) \
        == SCDM_FAULT_DIGESTS
