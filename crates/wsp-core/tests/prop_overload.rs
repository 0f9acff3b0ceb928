//! Property tests for the overload wire grammar: the deadline budget
//! (`X-WSP-Deadline` / the `Deadline` SOAP header) and the P2PS busy
//! fault are remote input, so for *any* bytes the parsers never panic,
//! junk yields "no deadline" / "not a busy fault" rather than a wrong
//! answer, and what this side renders parses back.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use wsp_core::overload::{
    busy_fault_reason, parse_busy_fault, Deadline, BUSY_FAULT_PREFIX, DEADLINE_HEADER,
};
use wsp_http::Headers;

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A budget is honoured exactly when it is a plain `u64` (modulo
    /// surrounding whitespace); the deadline it yields is never in the
    /// past, whatever the magnitude: a far-future budget saturates.
    #[test]
    fn deadline_budget_is_a_u64_or_nothing(
        junk in soup(),
        digits in "[ ]{0,2}[-+]?[0-9]{1,24}[ ]{0,2}",
        ms in any::<u64>(),
    ) {
        for value in [junk, digits, ms.to_string(), format!("-{ms}"), format!("{ms}99999999999999999999")] {
            let before = Instant::now();
            let mut headers = Headers::default();
            headers.set(DEADLINE_HEADER, value.clone());
            let deadline = headers.get(DEADLINE_HEADER).and_then(Deadline::parse);
            prop_assert_eq!(deadline.is_some(), Deadline::parse(&value).is_some());
            match value.trim().parse::<u64>() {
                Ok(_) => prop_assert!(deadline.is_some_and(|d| d.0 >= before), "{value:?}"),
                Err(_) => prop_assert!(deadline.is_none(), "{value:?} is not a budget"),
            }
        }
        let before = Instant::now();
        let exact = Deadline::parse(&(ms % 86_400_000).to_string()).expect("a day fits the clock");
        prop_assert!(exact.0 >= before);
    }

    /// Only reasons carrying the prefix are busy faults; the hint is a
    /// `u64` or absent; rendering round-trips.
    #[test]
    fn busy_fault_parses_or_is_not_one(junk in soup(), ms in any::<u64>()) {
        prop_assert_eq!(
            parse_busy_fault(&junk).is_some(),
            junk.starts_with(BUSY_FAULT_PREFIX)
        );
        // Soup after the prefix is a busy fault whose hint, if any,
        // is whatever `retry-after-ms=` value parses.
        let tail = parse_busy_fault(&format!("{BUSY_FAULT_PREFIX}{junk}"));
        prop_assert!(tail.is_some());
        let negative = format!("{BUSY_FAULT_PREFIX} retry-after-ms=-{ms}");
        prop_assert_eq!(parse_busy_fault(&negative), Some(None));
        let overflowing = format!("{BUSY_FAULT_PREFIX} retry-after-ms={ms}99999999999999999999");
        prop_assert_eq!(parse_busy_fault(&overflowing), Some(None));
        let rendered = busy_fault_reason(Duration::from_millis(ms));
        prop_assert_eq!(parse_busy_fault(&rendered), Some(Some(ms)));
    }
}
