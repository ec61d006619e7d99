//! The policies file and the mechanism DSL never panic: on arbitrary text
//! [`parse_policies`] returns, on arbitrary bytes [`policy_from_blob`]
//! returns, and whatever either accepts renders back to an equal policy —
//! `allocated_inodes` over the whole `u64` range. An accepted
//! [`Composition`] parses back equal from its `Display`, and an accepted
//! policy decouples a subtree through [`CudeleFs`] without panicking.

use cudele::{
    parse_policies, policy_from_blob, policy_to_blob, render_policies, Composition, Consistency,
    CudeleFs, Durability, InterferePolicy, Mechanism, Policy,
};
use cudele_mds::ClientId;
use proptest::prelude::*;

/// Pieces a policies file or a composition is spelled with, plus the
/// separators and junk that break one: `|` and `+` singly, a comment, a
/// line break, case, padding, and multi-byte text.
const TOKENS: [&str; 24] = [
    "consistency",
    "durability",
    "allocated_inodes",
    "interfere",
    "composition",
    "Composition",
    "flavor",
    ":",
    ": ",
    "::",
    "#",
    "\n",
    "\r\n",
    " ",
    "\t",
    "+",
    "||",
    "|",
    "-",
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "é€",
    "",
];

/// A value a policies-file key might be given.
fn arb_value() -> impl Strategy<Value = String> {
    let words: Vec<&'static str> = Consistency::ALL
        .iter()
        .map(|c| c.name())
        .chain(Durability::ALL.iter().map(|d| d.name()))
        .chain(["allow", "block", "ALLOW", "strong ", "-1", "1e3", "0x10"])
        .collect();
    prop_oneof![
        (0..words.len()).prop_map(move |i| words[i].to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        arb_composition_text(),
        arb_junk(),
    ]
}

/// Free text: a run of [`TOKENS`] and short strings over a wide alphabet.
fn arb_junk() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        "[a-z_:#+ 0-9]{0,12}|[α-ωあ-ん]{1,4}",
    ];
    proptest::collection::vec(piece, 0..12).prop_map(|p| p.concat())
}

/// Mechanism names joined by `+` and `||`, sometimes misspelt, padded,
/// upper-cased or left with an empty stage.
fn arb_composition_text() -> impl Strategy<Value = String> {
    let name = prop_oneof![
        (0..Mechanism::ALL.len()).prop_map(|i| Mechanism::ALL[i].name().to_string()),
        (0..Mechanism::ALL.len()).prop_map(|i| Mechanism::ALL[i].name().to_uppercase()),
        (0..Mechanism::ALL.len()).prop_map(|i| format!(" {} ", Mechanism::ALL[i].name())),
        "warp_drive|rpc|[a-z_]{0,6}",
    ];
    let sep = (0..5usize).prop_map(|i| ["+", "||", "+", "|", "+||"][i]);
    (name.clone(), proptest::collection::vec((sep, name), 0..6)).prop_map(|(first, rest)| {
        let mut s = first;
        for (sep, name) in rest {
            s.push_str(sep);
            s.push_str(&name);
        }
        s
    })
}

/// A policies file: free text, or lines of `key: value` (a known key or
/// not, a value that fits it or not) with comments and blank lines between
/// them.
fn arb_policies_text() -> impl Strategy<Value = String> {
    let key = prop_oneof![
        (0..7usize).prop_map(|i| TOKENS[i].to_string()),
        (0..5usize).prop_map(|i| format!("  {}", TOKENS[i].to_uppercase())),
    ];
    let line = prop_oneof![
        (key, arb_value()).prop_map(|(k, v)| format!("{k}: {v}")),
        (arb_policy(), 0..5usize, "[a-z ]{0,8}").prop_map(|(p, i, c)| {
            let rendered = render_policies(&p);
            let line = rendered.lines().nth(i).unwrap_or("interfere: block");
            format!("{line}  # {c}")
        }),
        "|#[a-z ]{0,8}| {0,3}",
    ];
    prop_oneof![
        arb_junk(),
        proptest::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n")),
    ]
}

/// A well-formed policy with every field drawn, `allocated_inodes` over the
/// whole `u64` range and its two ends.
fn arb_policy() -> impl Strategy<Value = Policy> {
    let mechanism = (0..Mechanism::ALL.len()).prop_map(|i| Mechanism::ALL[i]);
    let stages = proptest::collection::vec(proptest::collection::vec(mechanism, 1..4), 1..4);
    let inodes = prop_oneof![
        any::<u64>(),
        0u64..200,
        (0..2u64).prop_map(|i| u64::MAX - i)
    ];
    (
        0..Consistency::ALL.len(),
        0..Durability::ALL.len(),
        inodes,
        any::<bool>(),
        (any::<bool>(), stages),
    )
        .prop_map(|(c, d, allocated_inodes, block, (custom, stages))| Policy {
            consistency: Consistency::ALL[c],
            durability: Durability::ALL[d],
            allocated_inodes,
            interfere: if block {
                InterferePolicy::Block
            } else {
                InterferePolicy::Allow
            },
            custom_composition: custom.then(|| Composition::from_stages(stages)),
        })
}

/// An accepted policy must come back equal from its rendering, as a file
/// and as the large-inode blob.
fn renders_back(p: &Policy) -> Result<(), TestCaseError> {
    prop_assert_eq!(parse_policies(&render_policies(p)), Ok(p.clone()));
    prop_assert_eq!(policy_from_blob(&policy_to_blob(p)), Ok(p.clone()));
    Ok(())
}

/// Decouples `/job` under `p` on a fresh cluster, then creates a file in
/// it and merges. Any step may refuse; none may panic.
fn decouple_and_merge(p: &Policy) {
    const OWNER: ClientId = ClientId(1);
    let mut fs = CudeleFs::new();
    fs.mount(OWNER).unwrap();
    fs.mkdir_p("/job").unwrap();
    if fs.decouple(OWNER, "/job", p).is_ok() {
        let _ = fs.create(OWNER, "/job/out0");
        let _ = fs.merge(OWNER, "/job");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_returns_and_what_it_accepts_renders_back(text in arb_policies_text()) {
        if let Ok(p) = parse_policies(&text) {
            renders_back(&p)?;
        }
        prop_assert_eq!(policy_from_blob(text.as_bytes()), parse_policies(&text));
    }

    #[test]
    fn blob_decoder_returns_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        if let Ok(p) = policy_from_blob(&bytes) {
            renders_back(&p)?;
        }
    }

    #[test]
    fn accepted_composition_parses_back_from_its_display(text in arb_composition_text()) {
        if let Ok(c) = text.parse::<Composition>() {
            prop_assert_eq!(c.to_string().parse::<Composition>(), Ok(c));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drawn_policy_renders_back_and_decouples(p in arb_policy()) {
        renders_back(&p)?;
        decouple_and_merge(&p);
    }

    #[test]
    fn parsed_policy_decouples(text in arb_policies_text()) {
        if let Ok(p) = parse_policies(&text) {
            decouple_and_merge(&p);
        }
    }
}
