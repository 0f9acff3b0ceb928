//! The name pattern both bindings' queries match with: UDDI's
//! `approximateMatch` (`%` wildcards, case-insensitive), which the
//! P2PS query reuses so WSPeer's `ServiceQuery` abstraction maps onto
//! both.

/// The case fold of `approximateMatch`: two names are the same name
/// exactly when their folds are equal. Matching, the registry's name
/// index and shard placement all go through this one function — they
/// must agree, or a routed query looks on a shard that cannot hold its
/// answer.
pub fn fold(name: &str) -> impl Iterator<Item = char> + Clone + '_ {
    name.chars().flat_map(char::to_lowercase)
}

/// Case-insensitive match of `pattern` (with `%` wildcards) against
/// `text`. Classic two-pointer wildcard algorithm, no backtracking
/// blowup; both sides are read through [`fold`] as they are compared,
/// so a match allocates nothing.
pub fn wildcard_match(pattern: &str, text: &str) -> bool {
    let mut p = fold(pattern).peekable();
    let mut t = fold(text).peekable();
    // Where to resume after the last `%`: the pattern just past it, and
    // the text position the `%` has swallowed up to.
    let mut star = None;
    while let Some(&tc) = t.peek() {
        match p.peek() {
            Some(&pc) if pc == tc => {
                p.next();
                t.next();
            }
            Some('%') => {
                p.next();
                star = Some((p.clone(), t.clone()));
            }
            _ => {
                let Some((after_star, swallowed)) = &mut star else {
                    return false;
                };
                swallowed.next();
                p = after_star.clone();
                t = swallowed.clone();
            }
        }
    }
    p.all(|c| c == '%')
}
