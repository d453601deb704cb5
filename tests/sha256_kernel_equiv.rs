//! The two SHA-256 compression kernels are one function.
//!
//! `crypto::sha256` picks its kernel from what the CPU reports (SHA-NI on
//! x86-64 when present, the portable scalar one otherwise), and every id,
//! Merkle root and stored hash in the workspace goes through it. These
//! tests hold the dispatched path to the portable reference
//! (`sha256::portable`) and both to fixed points outside the code: the
//! FIPS 180-4 vectors, and ids captured from the commit before the second
//! kernel existed — so a store written by an older build reopens under a
//! newer one, whichever kernel either ran on.

use blockprov::core::txkind;
use blockprov::crypto::merkle::{leaf_hash, node_hash};
use blockprov::crypto::sha256::{hash_parts, portable, sha256, Hash256, Sha256};
use blockprov::ledger::block::Block;
use blockprov::ledger::chain::{Chain, ChainConfig};
use blockprov::ledger::tx::{AccountId, Transaction};
use blockprov::provenance::{Action, Domain, ProvenanceRecord};
use blockprov::wire::Codec;
use proptest::prelude::*;

fn bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + i / 251) as u8).collect()
}

#[test]
fn dispatched_equals_portable_at_every_length() {
    let data = bytes(1 << 20);
    for len in (0..=320).chain([1 << 20]) {
        assert_eq!(sha256(&data[..len]), portable(&data[..len]), "len {len}");
    }
}

#[test]
fn update_equals_portable_at_every_split() {
    let data = bytes(200);
    let expect = portable(&data);
    for split in 0..=data.len() {
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), expect, "split at {split}");
    }
}

proptest! {
    /// Pieces of any size, many of them spanning several blocks.
    #[test]
    fn update_equals_portable_at_random_splits(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut from = 0;
        for to in cuts {
            h.update(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(h.finalize(), portable(&data));
    }
}

#[test]
fn fips_180_4_vectors_on_both_kernels() {
    let million_a = vec![b'a'; 1_000_000];
    let cases: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for (input, expect) in cases {
        let len = input.len();
        assert_eq!(sha256(input).to_hex(), expect, "dispatched, {len} bytes");
        assert_eq!(portable(input).to_hex(), expect, "portable, {len} bytes");
    }
    // The million-`a` vector fed piecewise, across block boundaries.
    let mut h = Sha256::new();
    for piece in million_a.chunks(1000) {
        h.update(piece);
    }
    assert_eq!(h.finalize().to_hex(), cases[3].1);
}

/// `hash_parts`' framing, spelled out, on the portable kernel.
fn portable_hash_parts(domain: &str, parts: &[&[u8]]) -> Hash256 {
    let mut framed = Vec::new();
    for part in [domain.as_bytes()].iter().chain(parts) {
        framed.extend_from_slice(&(part.len() as u64).to_le_bytes());
        framed.extend_from_slice(part);
    }
    portable(&framed)
}

/// `leaf_hash`: `H(0x00 || data)`.
fn portable_leaf_hash(data: &[u8]) -> Hash256 {
    portable(&[&[0x00], data].concat())
}

/// `node_hash`: `H(0x01 || left || right)`.
fn portable_node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    portable(&[&[0x01], &left.0[..], &right.0[..]].concat())
}

#[test]
fn framed_and_merkle_hashes_agree_on_both_kernels() {
    let data = bytes(300);
    for len in [0, 1, 31, 32, 54, 55, 56, 63, 64, 65, 119, 120, 300] {
        let part = &data[..len];
        assert_eq!(
            hash_parts("blockprov-test", &[part, b"tail"]),
            portable_hash_parts("blockprov-test", &[part, b"tail"]),
            "hash_parts, {len} bytes"
        );
        assert_eq!(
            leaf_hash(part),
            portable_leaf_hash(part),
            "leaf_hash, {len} bytes"
        );
    }
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    assert_eq!(node_hash(&left, &right), portable_node_hash(&left, &right));
}

// Captured at the parent commit (d0ed31e, portable kernel only) by running
// `golden_stream` below and printing what it hashes to.
const GOLDEN_GENESIS: &str = "85a4469f323a415501b8ea264e3fb00de6c51cff2cb350b60151e5144018b2e0";
const GOLDEN_TIP: &str = "d8c2ea8c7e8f82caac3e86ff38b66c522567d8f45e16e88c8c5f6f1fb3f96503";
/// Transaction ids of `golden_stream`, in block then position order.
const GOLDEN_TX_IDS: [&str; 160] = [
    "77ae33e09ba3a4ea022e9e8f6aa41e7240d784d36e72bb2fdc02bc123540f3b9",
    "d1094b8b781186c133ad97c44105d1ec6ab023a9d281d8c137de1b898bb1f6a6",
    "08e5566b46326f9a3f37237179d4a1195beffbdc829a32aceabb637a2ea96c5b",
    "25de5bbe2a9fafb6de16152ff908ddf7787a99813f3736f7f388e4c0dd02c385",
    "f3a9863478bc619602eca51e5a2102838c7080b0e921113bdf2c19acab4aa39a",
    "d419885736f1882bb5ededbb1ddea2138bf8aa52b7cc2e8a5a1a549e2e3c8b6f",
    "2b3b9cbf1e12a97ffe5dadf6567a4ef4f4e40ed816508b783a72738f95af3657",
    "a79e765184ec0dcf5636ff7f9d3960ebdfb6f4203fa0f994f1b8c14687c01b08",
    "3f3559f0e91c00302a68270b0526641cf78948c680d9dbaffeeb22c9e08eb951",
    "ef1a77d58a45151e55d519656994c15bcfe87c8f339c1392dcef9b0f0baa7660",
    "42aea6eb235c48a171cc5d6e9a6a6c657eb961acf8de7aed291180ecc1d3fc2a",
    "85bb0cc6946e016551ad181b348e81d1ba1ac9d229af38b8360f791999dcc59d",
    "aaba2a0e5ff16c353f3384f92362cee3f8040c8b62d4e7a900a4ab53215ed38a",
    "7c58e03c5dcc2ddc54f25d0961fe8ac12a8f8a143b989ff2bad2c5adef94e66c",
    "51f123b8572d72af11e758742c81019b1e4bcf29ca94bef6b66f39e9cb3d77a4",
    "7cbccb53f321b762b723eca000d44a3a633599cb6ff95a000e299528bb3651ef",
    "dc4426b5bca4120000c2d9d157f1c8938074a669ff514fddb612db0aa724ddae",
    "42ceec8fd9710ac42f59cb80c763da6e0610a05e37f2803308fc8e5e6ceba510",
    "0d7f9bd2c98643f1642bc00647e22e52f8910bbde3be2fde07b83b73ca934a58",
    "9c0285e44f14b805c69d4e17dca9d8ebf49010f47fa7ac6325c31ae5f50074d4",
    "2452e561f37ecc6392fb99f78b20b140d0c36ad97d62f62c09560fb235032b3f",
    "7c7c8e657be2e176c4848cdbb3fa21aa2a760f8e24d1f63419daed68b83c41ec",
    "558e255b68b8535ded83e5a65a3c87e05b09087e1f39498ababb92717c9bb86c",
    "8908706388f55fea925e5ee3dcb38cd141f06b9258df3786ccb5003e7534e5d4",
    "23114ba08b11bdf94a4c33fa1d0a46a7e7c102cad01801d15a5657dc5efd6e5c",
    "30028e3e4395ad45de0700ca753a30d9b0881fca8547568a6853effad5cfb75b",
    "9fbcc15f9b9ce5b92fb7c0c1b7a997337f931191deaf70dbc5a4ce39063d8cd5",
    "8973a1c68e7251a257d5f798d2671c443d0f4553d9457287598692720a6eb012",
    "c3ff2680516aa64aff06d42ad38774355a6567e91e7487683d869f7d8f2efd61",
    "828ed0c75f6c29910d3a55638d8486c04262d78b3b663c13a23e39a4b70f51f0",
    "8c7cde092c8b4ef1b901e1daf588b4ce773411864026731f9e4df00d57bbab25",
    "052860f9e5279231be8e40548cc68dc944e1755376d7285effb32effe39fa95e",
    "441ac572cd378456ea14063ca64be66d2eb3a8f2a4b640ff8e588ae8cff8963d",
    "781196ec25260ad371147e89877b6319a5c36fbb3a92fd9effabb2d13c927311",
    "090f577339e4e13a1a9469facaace7b6deea4e4b21bda3cfeebc8be4e6587f39",
    "a32211ca32834bd5070c20d69fa3c246846f80333b7b46ff05c2c614c0830e7b",
    "6bdf62e92f735443a531447c5a449f2f9cd15f7b35a443e07bd3044b855529d6",
    "d046d29f8637641daa918782467c03e34309c202068621df66d30c0ce9a2d880",
    "5145eddd650d97b90c3fb27fc4e2380598e668afccb91a9bb58eeac783700c6a",
    "4f8fd3fb5a42fd609e6723dbf9442ad92e4e9d0d40b0a35eef4a80da5abfa1d9",
    "55339f3d3bfabc1631af57f7d6abb6240e5a4231b9cdd2d362b82125cbc9f60e",
    "2656117317d78ac5113e5be311549f1b1689debeb4890be4aaae3dd6b995cfd0",
    "bb024febc80adb84318b55921bf29bfa3e22fbc050b9a364d584aae0d14b2462",
    "3133776db5aeaf52ef484881f993b002e3bd2bf0e3816038d3edcc85f8a0ce43",
    "f150b705d294e113e11391645cb36030d8e804b2b3e2d76cc861fd7cbd2ffe8d",
    "17e001346fc19c02fd4e8ca5ea0b7311c653dc226c1976d43e879d2e34bdb83e",
    "27179b2cc42016a904e238da7103b65b2ad95d97aa5c93ffa97d07523316833c",
    "52e6e57c95c1f477b4dd7b9fceeadb08f228d298fa8cdae25b47a837b7aee2a5",
    "2f19a59dc3cb9b8459d2b66ad1f24026105fe3e3f30e464bbe6596e54eed7796",
    "c8bdf0229c687ba00cd981d38dedba1dd07342039577ccfd09f2a9f49ae70e1c",
    "9524f1f7ccabf2d2ffe080c62ca77abd459d737990f4619f756f6c75ed089621",
    "ce419bdeab8e2a68c08d6e4d26d3c44ed7260651a784f71f77f952170cdc484e",
    "56fd97e2edd9339d1a472820d824b89602613c1193f2f70a081f1219f6a7e3fa",
    "e7a1443a7d2226b72ff9218f68e26dc78a5fac7fe77bae830eeda31c292ab3aa",
    "321259bf58ff35411565d5da8c531c5785970f9208e9522f2e017fe5cb806bb7",
    "63722388abe5ad0240df9a14f45be3189ece903328b4724f71e630f8ddcc37bf",
    "e71d5b1995b2f46c44c5003e26e073ab6151613e35b4b5c733ddd41084968828",
    "b5f521793959b0509bba97746619ea1b3d55655cd47c100fd77e14caaf7b3bf9",
    "3745fb403a506075b758d1ab367c16b46253040b446dab965ec078d2b570caad",
    "3ce1a7875330264a68b34c6bcd79a40ebbd134354feee43c52bf203671d2b06c",
    "05c77c283df917030320c86ead2921794de745853367c93545745e459f152d4d",
    "f4e7486fa5c53cd09147fcc176d9d407ea5b73311ec86cbfb4dfbe25d996ba8b",
    "fd94e894ae8f81406e8bc3f5407412fad1e230e2911232c099eb71d8781899e5",
    "907b7bd08b8fa87232fbc21a0d7072f0fbbfb1d7c5d1894670941a6d5d69c133",
    "49ad820bea3e8960435c17032644252abebf9b9b4ba52d38e58e01a6fc2ed2b3",
    "d999daf856ee8f6a645d012ccbc33657ac94bcdd26093e40668390869f7fc294",
    "8a3ab9c0935102ae6ef989e4fdeec35d8c6e14d2ee8bc6656c79ddff77ee24bc",
    "4d40ba1c2bdf825e12f919667960155e53ae4da1f6154c722990567edb571b49",
    "deb7c83305812f0d1f5b4ab956dfbd5ae2667e19c03ee3972dfd37e6a9b56f0d",
    "959c12b04be58e48783f6e3a9888502ffab0278cbab463608edf21ee41dd3d14",
    "7386bf14a5b5defd55301e6b187455ee2b4fe4e1133b51aa97744f51b69fd48f",
    "d7e65ccea7055fe87973a7810e03605e09279f66a6495d36bf0f57e581e2768f",
    "cd58ac62b228f1f044ad2e3a36c99bb88e04a20216808b45c0beeecbd6e6557e",
    "117e8f0a7c2d7bb526f4e9f4d018cf51ca0b0e15b9ded1f34169f8de1853eb9d",
    "366aaff7e8a59a42bb5469c09da0104b3bc229ae4cd37422c25c0a07f554cc91",
    "d9d2d83a75bea90bb4e2ce671d697ba15aed86a06a0e317243e75418201489cb",
    "d54a0696718de9658cd139a1db0ead3dcbe1aef9208998e8b0c77aca58b67600",
    "fb83c8516e25a6c6da47d033cd66fc0720ce5d25e0f5d650175df5771b1b2d37",
    "ec62e3efd96049be66d74a80ce8cf0d756c6c0153c8670281899c1dd12456d7c",
    "686cfa7e3c390ff320006bef6f27e676d7bf0525692a070aab7c06bff153306a",
    "f31150fa3627b2cd0e17a7836233c9827cf472e2de39e14040461ee861c08d13",
    "dd0b597aa075c3efe29aec390f9bb4e7d312f68840b21db64d51862ffba46179",
    "2684c08fbb2e5294566fd53c6bbabc5cf7b04eb9bcba94f878c79514e947be60",
    "a08264430c1c31ba0decc2ffbf934a6c5da0f537a4fecae8392e1a3fd65a5ac5",
    "9fd8a913ec9bb5fc015bdaf59890d69378a9b06e4ffdf1e645c98ee1cff507d3",
    "eaae779977cde208d8a4e16e07d00f45f0790126d12bae146792b492681fed34",
    "55ea608c2b8ed03134098e50a69a5e4140a8acde7a6cc1074f1f3d3693b861ba",
    "f62fcb7065b91457db0db47a72ceafdae8fd9bfcb9ac702ed0aca8493366754d",
    "dc72df0567e60f4e35b14367c63e5f8bd1e6b5f8c4a1ce246826d26f392ddca1",
    "0d36dc69d17d6ce25024ce611c96897166cd4969c9bc4865284f80e2904e816d",
    "fe98f09edffe8ab6b2e26453647870cc39c7b9a98439c8f07180dc109c8193e1",
    "37f0b3476c49dfaeaafa67bc6888513ebdd83b0050ecdb881e0560c698034e1a",
    "a5bba0c14d0e01c808cbb4d264d8f75c13810a90e8f18efbc84fb0726eca4bad",
    "23dcd64af377f4d864cd589aa5c9764f5c960799debbb20484d5407430804408",
    "eb34857444faf4c22d0215bc1deba5321b57e4c20452e79bb093ad353fc384fb",
    "08d5bdef3fb5925d7e1ddc691ff298ff048d631c092dec57f62bb4e23324690e",
    "c0b15953da411b3d31518c03fdea6d8d63c56e23ca9079029b7ec8faa55ae342",
    "a0d745ee2f3a55f6b6a045c6f693e6a9679956edff8a7157d6b43419979127de",
    "9a0476667d92025d6fda95280365164c1060a277c850073ee9fcf84b41c4f377",
    "75fe208df46b82290d2fe850ae8a5fef72474a57563facfc9932ecba6a35e67b",
    "e51927dcfa496920a72379c915c1d9ed253222107c212b1f62f65950fd0a5649",
    "68b2ef47d8576b83f3f8b1344dcf4cc86faba5bf4b3627e60de738af99f95171",
    "dc574d4adb6d08aa5d2f000a078b580a5b09532284c493514c4a82590be706d9",
    "744fda9b22e4f04acdc0bad41dfc94adee8ddba18e406279428b14ff45d380fa",
    "ee83f4797f3e73f06671f627d94b8d6e586e39667924af68853ad86558856562",
    "cd4fb87731947f7bd0cc0cceb4d4af092f299afb1788f5940788818c4a532831",
    "dfe83d8e2a1013a7b8a33eb442ae36df6b8e61a818fe693c0059b9af54474575",
    "d624cd8f4712b576801d225dcac162ceef2bd81341a27541baf7b53b205000fb",
    "e59d5e57d41f41651f5384207d618c0b66542d454a306e917a4f003897b85ffd",
    "006f5d722f55d4c6111a69ce380a351412ee6ff400da02c2af6b0d851f6227b2",
    "519e2e45e2c854bd01245450a61e36ca3a6407c78b37920fa1d3cebf1b300f5f",
    "3d7d76d82df7c6907a16c66fa394e34eb620379a9eee7c909f02a37df8c88ea9",
    "d5d4b7a6f00acf0003c89d439dcf348d127f378d776e288f4f2fb70979e2e5ca",
    "67e6036fc4d7ee653f26f1a91a4c51bde5d1f46a30d4bd397da9f1dfb1bd8c25",
    "24d440bacb79045975389e1e60042f99dc37617c49cb6d696574e64b294cf1e5",
    "05c095ef69eafe51d45f6b8acb143defb24ecbcd6ba151ec1fd639cf34b3082e",
    "fe76026c2c26ec498e2bfcb446e350f92a5cd90977b31b299cc20601fd1e37a3",
    "68be8482d8d1c9cde0df8a63a9a426018c80b08360421b8ddd44938c8e981895",
    "761ed117cf8d9fbde2299bc6c02224d0e57e1a2080318ad259a821d618f876ae",
    "2e0cd3eda7e66e099fffb4f38acef781ee9333ef0361c07d81d58a8631590dce",
    "0fea6535c80e8705060fdfc0cf22ed7d248ee3b45fc2684c20b9f1e9e6055a97",
    "7a1111d445e87141d45f50f59a3748daddf43cc90addc59bc297f8e96d0aebb9",
    "1ebc4008085534cffc9ab413173a27cdaba224906648f7415c4334940564deda",
    "6b1d6f1f45ff82dbd0cc72e5909b4af56108ffa2fc8639fb3b8f47beb3721fb2",
    "ada5f08f4cee16959ce0c4a2f17c68eef1221e51f0de7ecc12f25b6f876a7152",
    "e2febf13fb534add18a0ed0af30c7066a0cb8408d3b1ddec4fd7af3ab4a35fbe",
    "507636a200107ae3c350039dc5f848ad303af7db183459a73f581212b175049b",
    "db123ac79278b6cabc61f3c761c3b8cfe38472244b6b23f529b598d4a64904fe",
    "b281d44156ff981cc1117de61599fffb5e8b3d4fe2e8b9b9fb657147730be01b",
    "93188ef6e34214aba3ce776ea12b9c4e63838fd9034b3a8c9bfbe95c31b27224",
    "8f3e257ba7a12be5a2df6535c82e2a4b9747fa84a14339272cc2fbb553e0e2a8",
    "eb08823ae89a7827f30bb76650a71b191ffe71aa192271d4b5160cf82d15290f",
    "c19cfc7c1a1c04602b3522383de2b60302739fdeaee640dd036168bcb3d7444b",
    "2f41fa7bf4535d5b57967cd0baaf93c46db122ed21d79eba3b3e3468ace0110e",
    "a3185a5f1fa3ce23d1256248c95f4a885682e12b7567c5ea529a272c02d01ae3",
    "404455a4bb26e199ec8bad159ca5dd468ae3dd3b855549c51f1d90a880e95b53",
    "6b76194c5f2d9b0a61a82c99d3211a833bfdfc8cbf5f093cc261db199784f845",
    "c3c01143e6eff7a42ce08331a3eeda1fa421507f8773718bec5e4dd8a46cfcc7",
    "b3ddaa3e527a4b722757fb4dbc9fd2bfe08bb9b543a5e99af8bfd28808a6312e",
    "380d9d8f4638dcf810cf40e9665c16ecb858b57db630065d3bf42a601d65bf96",
    "664cfaa512e2024e10b865e787ccbc6ed6d0c95105b1897b28a00512ffc81c13",
    "28945ecd77114f3b31399e5059411e99d3eaffca021b6c2ea111b2f3d3fd0cde",
    "6879ad9bc3b2310d1ec5dfe0bff5d49b2a2d66cd8fbf41c6b92e99e69de9a9d2",
    "4031c7779ee999e674ca9e1e15ab0443879d8b2a976120334acf954baca82d33",
    "59bac9697ed51a88162f546c656716c7a08d8632f44e3de2e80016572be8a249",
    "cb26f3c5fb6401edaec94898a03d4b74f1cf19038e2466753b356ebbe2c82697",
    "05c4749800a797de2981db6853b0cda0eeb8ba4de2f7baa12cd89e2b19a60eac",
    "ad705596b2c007f8238e2bf985f4e5ce0a1e56b9a947efc25764d2b430ff9dfd",
    "591d331f1137e302985cd77b7e4f8158e129473ec41ddbf73b368cc6d79be012",
    "3f1948820a206d43581ccef96f1fb8f766aa008d698093f22fa0e71a486e3674",
    "24f1fd22606def18778c9aa34cf9bb9d216c22cae6fc9fda039fc0ea0547e351",
    "00ba9adc93e14c39c35df9cb47c373410ede9deaf29b24962aad5682ea6a8943",
    "0f3eb8beda8925bef19cc26673fb4b9a1e298b9c2c85a0ff64c2b79a19746480",
    "bbb80c68833db3c6ffdc3f354e8b2d8bbd41c0bb738701a431af8c8cda4073ea",
    "6b9883b014354586ad33f7b4009e05df8ee9153a25a97d765fb7636a6504c4a5",
    "ccc3644f5f6e6b88aa594803160a5a0931e37a9660b06a28cca5df8fd48d2ab6",
    "c4a1819d644b430350b3010fb21fb39beae0ad9bb4a6931b412655482c0fde7b",
    "5ed165072edeb2627eb33e910f62d47c92216f104b0acc2757b091b07e662438",
    "befa2898203231a82c2530dc172e1f11096ac55ec5b5a696aa37bda2176e6c7e",
    "648264ea872105abe9c983d7687ccbf595ecf53c2257e07914139264c50805b6",
];

/// 64 chained provenance blocks of 1, 2, 3, 4, 1, … transactions on genesis.
fn golden_stream() -> Vec<Block> {
    let agent = AccountId::from_name("golden-agent");
    let sealer = AccountId::from_name("golden-sealer");
    let mut prev = Chain::genesis_block().hash();
    let mut nonce = 0u64;
    (1..=64u64)
        .map(|height| {
            let txs = (0..1 + (height - 1) % 4)
                .map(|_| {
                    nonce += 1;
                    let record = ProvenanceRecord::new(
                        &format!("artifact-{}", nonce % 7),
                        agent,
                        [Action::Create, Action::Update, Action::Read][(nonce % 3) as usize]
                            .clone(),
                        1_000 + nonce,
                        Domain::Generic,
                    );
                    Transaction::new(
                        agent,
                        nonce,
                        1_000 + nonce,
                        txkind::PROVENANCE,
                        record.to_wire(),
                    )
                })
                .collect();
            let block = Block::assemble(height, prev, 10_000 + height, sealer, 0, txs);
            prev = block.hash();
            block
        })
        .collect()
}

/// A block's transaction root rebuilt on the portable kernel under the
/// tree's rule: pair left to right, promote an odd last node unchanged.
fn portable_tx_root(tx_ids: &[Hash256]) -> Hash256 {
    let mut level: Vec<Hash256> = tx_ids.iter().map(|id| portable_leaf_hash(&id.0)).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [left, right] => portable_node_hash(left, right),
                odd => odd[0],
            })
            .collect();
    }
    level[0]
}

#[test]
fn ids_captured_before_the_second_kernel_still_hold_on_both() {
    let blocks = golden_stream();
    let mut chain = Chain::new(ChainConfig::default());
    assert_eq!(chain.genesis().0.to_hex(), GOLDEN_GENESIS);
    let genesis_header = Chain::genesis_block().header.to_wire();
    assert_eq!(portable(&genesis_header).to_hex(), GOLDEN_GENESIS);

    let mut golden_ids = GOLDEN_TX_IDS.iter();
    for block in &blocks {
        let mut ids = Vec::new();
        for tx in &block.txs {
            let golden = *golden_ids.next().expect("160 transactions");
            assert_eq!(tx.id().0.to_hex(), golden, "dispatched");
            assert_eq!(portable(&tx.signing_bytes()).to_hex(), golden, "portable");
            ids.push(tx.id().0);
        }
        // Root and block hash on the portable kernel equal the dispatched
        // ones; the golden tip below pins the whole chain of them.
        assert_eq!(portable_tx_root(&ids), block.header.tx_root);
        assert_eq!(portable(&block.header.to_wire()), block.hash().0);
    }
    assert!(golden_ids.next().is_none());

    for block in blocks {
        chain
            .append(block)
            .expect("the golden stream is a valid chain");
    }
    assert_eq!(chain.height(), 64);
    assert_eq!(chain.tip().0.to_hex(), GOLDEN_TIP);
}
