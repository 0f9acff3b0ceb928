//! A speedometer for the machine, read while a workload runs.
//!
//! The shared virtual machine this benchmark was defined on changes
//! speed under the programs: for seconds at a time the same code runs a
//! quarter faster (its neighbours are idle and the core boosts) or a
//! quarter slower (they are not), and ten runs of one workload disagree
//! by as much. So each client thread, once a millisecond between two
//! ops, times a fixed piece of work of the bench's own — the chunk:
//! escape 4 KiB of text, then pass four 64-byte messages through a
//! socket pair; nothing allocated, nothing of the programs called — and
//! every slice of the measured window is divided by how fast the
//! machine was *during that slice*:
//!
//! ```text
//! speed      = mean over the slice's readings of REFERENCE_CHUNK_NS / chunk time
//! latency    = measured latency   * speed
//! throughput = measured ops/s     / speed
//! ```
//!
//! The chunk is a third user-mode byte work and two thirds socket system
//! calls because that is what the workloads are, and because the machine
//! has states that only one of the two notices. Probes read side by side
//! through 140 runs in the machine's worst hour (runs of one workload
//! 12–18 % apart as measured, standard deviation of the logarithm): the
//! escape loop alone left 5–10 % (for a minute at a time every workload
//! ran a sixth slower and the loop did not), the socket pair alone 3–8 %,
//! both together 2–6 %. Probes that added nothing: `getppid` in a loop,
//! a pointer chase through 4 MiB, arming and disarming a timer. (A loop
//! that waits on one long dependency chain hardly notices any state.)
//!
//! What is reported is therefore a time on a machine that runs the
//! chunk in [`REFERENCE_CHUNK_NS`]; the machine's own speed is printed
//! beside it (`machine_speed`), and so are the times as measured.
//! The chunk is the same on every commit and every seed — the same
//! machine code at the same alignment on the same addresses within a
//! page, see [`Speedometer::escape`], and the kernel's own code — so two
//! results compare whatever the machine was doing under either and
//! wherever either was built.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// A machine that runs the chunk in this many nanoseconds has speed 1:
/// the machine the benchmark was defined on, in its usual state.
pub const REFERENCE_CHUNK_NS: f64 = 7_500.0;

/// A client takes a reading when this long has passed since its last.
pub const EVERY: Duration = Duration::from_millis(1);

const TEXT_LEN: usize = 4096;

/// After the text, this many 64-byte messages go through the socket
/// pair: twice the time of the text.
const ROUND_TRIPS: usize = 4;

/// The chunk's memory is one block, 4 KiB-aligned, so that the distance
/// between the bytes it reads and the bytes it writes — which decides
/// whether the CPU mistakes a load for one that depends on an earlier
/// store — is the same in every process: the text, the class of each
/// byte value (0 plain, 1–5 the entity to write), the entities (16 bytes
/// each: text padded to 8, length as a `u64`), and the output half a
/// page further on.
const CLASS_AT: usize = TEXT_LEN;
const ENTITY_AT: usize = CLASS_AT + 256;
const OUT_AT: usize = TEXT_LEN + 2048;
/// Every byte could become a six-byte entity, and an entity is stored
/// as eight bytes.
const BLOCK_LEN: usize = OUT_AT + 6 * TEXT_LEN + 8;
const PAGE: usize = 4096;

const ENTITIES: [(u8, &[u8]); 5] = [
    (b'<', b"&lt;"),
    (b'>', b"&gt;"),
    (b'&', b"&amp;"),
    (b'"', b"&quot;"),
    (b'\'', b"&apos;"),
];

/// One reading: in which slice of the phase, and how long the chunk
/// took.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub slice: usize,
    pub chunk_ns: u32,
}

pub struct Speedometer {
    /// The block starts at `block[base]`.
    block: Vec<u8>,
    base: usize,
    pair: (UnixStream, UnixStream),
    due: Instant,
}

impl Default for Speedometer {
    fn default() -> Self {
        Speedometer::new()
    }
}

impl Speedometer {
    pub fn new() -> Speedometer {
        let mut block = vec![0_u8; BLOCK_LEN + PAGE];
        let base = block.as_ptr().align_offset(PAGE);
        let at = &mut block[base..];
        // Printable text with about 3 % markup characters, from a fixed
        // generator: the chunk is the same work on every run.
        let mut state = 0x2005_u64;
        for byte in &mut at[..TEXT_LEN] {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            *byte = if r % 100 < 3 {
                b"<>&\"'"[(r / 100 % 5) as usize]
            } else {
                b'a' + (r / 100 % 26) as u8
            };
        }
        for (class, (byte, entity)) in (1..).zip(ENTITIES) {
            at[CLASS_AT + usize::from(byte)] = class;
            let entry = &mut at[ENTITY_AT + 16 * usize::from(class)..][..16];
            entry[..entity.len()].copy_from_slice(entity);
            entry[8..].copy_from_slice(&(entity.len() as u64).to_le_bytes());
        }
        Speedometer {
            block,
            base,
            pair: UnixStream::pair().expect("the speedometer's socket pair"),
            due: Instant::now(),
        }
    }

    /// Take a reading if one is due at `now`; its time in nanoseconds.
    pub fn read_if_due(&mut self, now: Instant) -> Option<u32> {
        (now >= self.due).then(|| self.read())
    }

    /// Take a reading: the chunk's time in nanoseconds.
    pub fn read(&mut self) -> u32 {
        let started = Instant::now();
        std::hint::black_box(self.escape());
        self.round_trips();
        let took = started.elapsed();
        self.due = started + EVERY;
        took.as_nanos().min(u128::from(u32::MAX)) as u32
    }

    /// The user-mode part of the chunk: escape the text byte by byte;
    /// the escaped length.
    ///
    /// Fixed machine code at a fixed alignment, not compiled Rust: how
    /// fast a loop this small runs depends on where its branches fall in
    /// a 32-byte fetch block and on what the compiler inlined, and two
    /// builds of the same source in two directories (a path dependency's
    /// symbols are hashed with its absolute path, which reorders the
    /// binary) timed the compiled loop 14 % apart, so everything brought
    /// to "reference speed" moved by 14 % with the build directory. The
    /// hot loop below is 29 bytes from a 64-byte boundary.
    #[cfg(target_arch = "x86_64")]
    fn escape(&mut self) -> usize {
        let at = self.block[self.base..].as_mut_ptr();
        let end: *mut u8;
        // SAFETY: reads TEXT_LEN bytes of text, the 256-byte class
        // table and the entity table, and writes at most 6 * TEXT_LEN
        // + 8 bytes of output, all inside the block.
        unsafe {
            core::arch::asm!(
                ".p2align 6",
                "2:",
                "movzx eax, byte ptr [rsi]",
                "add rsi, 1",
                "movzx r8d, byte ptr [rdx + rax]",
                "test r8d, r8d",
                "jnz 4f",
                "mov byte ptr [rdi], al",
                "add rdi, 1",
                "3:",
                "sub rcx, 1",
                "jnz 2b",
                "jmp 5f",
                "4:",
                "shl r8d, 4",
                "mov rax, qword ptr [r9 + r8]",
                "mov qword ptr [rdi], rax",
                "add rdi, qword ptr [r9 + r8 + 8]",
                "jmp 3b",
                "5:",
                inout("rsi") at => _,
                inout("rdi") at.add(OUT_AT) => end,
                in("rdx") at.add(CLASS_AT),
                in("r9") at.add(ENTITY_AT),
                inout("rcx") TEXT_LEN => _,
                out("rax") _,
                out("r8") _,
                options(nostack),
            );
            end.offset_from(at.add(OUT_AT)) as usize
        }
    }

    /// Elsewhere the compiled loop has to do; see above for what that
    /// costs.
    #[cfg(not(target_arch = "x86_64"))]
    fn escape(&mut self) -> usize {
        self.escape_compiled()
    }

    /// The same work in Rust: what the machine code is checked against.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn escape_compiled(&mut self) -> usize {
        let (input, out) = self.block[self.base..].split_at_mut(OUT_AT);
        let mut len = 0;
        for &byte in &input[..TEXT_LEN] {
            match input[CLASS_AT + usize::from(byte)] {
                0 => {
                    out[len] = byte;
                    len += 1;
                }
                class => {
                    let entry = &input[ENTITY_AT + 16 * usize::from(class)..][..16];
                    let entity_len = entry[8] as usize;
                    out[len..len + entity_len].copy_from_slice(&entry[..entity_len]);
                    len += entity_len;
                }
            }
        }
        len
    }

    /// The kernel's part of the chunk: messages through a socket pair,
    /// each written and read back by this thread, so nothing waits.
    fn round_trips(&mut self) {
        let mut message = [0x5a_u8; 64];
        for _ in 0..ROUND_TRIPS {
            self.pair
                .0
                .write_all(&message)
                .and_then(|()| self.pair.1.read_exact(&mut message))
                .expect("the speedometer's socket pair");
        }
    }

    #[cfg(test)]
    fn escaped(&self, len: usize) -> &[u8] {
        &self.block[self.base + OUT_AT..][..len]
    }
}

/// Speed of the machine over a slice's `chunk_ns` readings: the mean of
/// `REFERENCE_CHUNK_NS / reading`. Readings are spread evenly over the
/// slice, so this weighs the machine's states by the time they lasted,
/// as the slice's throughput does; and a reading during which the
/// thread was off the CPU counts as the near-zero speed it saw instead
/// of dragging a mean of times. `None` without a reading.
pub fn speed(chunk_ns: &[u32]) -> Option<f64> {
    if chunk_ns.is_empty() {
        return None;
    }
    let rates: f64 = chunk_ns
        .iter()
        .map(|&ns| REFERENCE_CHUNK_NS / f64::from(ns.max(1)))
        .sum();
    Some(rates / chunk_ns.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chunk_is_the_same_work_every_time() {
        let (mut a, mut b) = (Speedometer::new(), Speedometer::new());
        let len = a.escape();
        let first = a.escaped(len).to_vec();
        assert_eq!(a.escape(), len);
        assert_eq!(b.escape(), len);
        assert_eq!(first, a.escaped(len));
        assert_eq!(first, b.escaped(len));
        // About 3 % of the text is markup, so escaping grows it.
        assert!(len > TEXT_LEN + TEXT_LEN / 50);
        assert!(len < TEXT_LEN + TEXT_LEN / 4);
    }

    #[test]
    fn the_machine_code_escapes_like_the_compiled_loop() {
        let (mut a, mut b) = (Speedometer::new(), Speedometer::new());
        let (len, compiled_len) = (a.escape(), b.escape_compiled());
        assert_eq!(len, compiled_len);
        assert_eq!(a.escaped(len), b.escaped(len));
        let text = String::from_utf8(b.escaped(len).to_vec()).unwrap();
        for entity in ["&lt;", "&gt;", "&amp;", "&quot;", "&apos;"] {
            assert!(text.contains(entity), "{entity}");
        }
        assert!(!text.contains(['<', '>', '"', '\'']));
    }

    #[test]
    fn readings_come_when_due() {
        let mut s = Speedometer::new();
        let now = Instant::now();
        assert!(s.read_if_due(now).is_some());
        assert!(s.read_if_due(now).is_none());
        assert!(s.read_if_due(now + 2 * EVERY).is_some());
    }

    #[test]
    fn speed_is_the_mean_rate_of_the_readings() {
        let reference = REFERENCE_CHUNK_NS as u32;
        assert_eq!(speed(&[]), None);
        // A machine twice as slow as the reference.
        assert_eq!(speed(&[2 * reference; 3]), Some(0.5));
        // Half the slice at the reference speed, half at a quarter of
        // it: what a throughput over the slice sees.
        assert_eq!(
            speed(&[reference, reference, 4 * reference, 4 * reference]),
            Some(0.625)
        );
        // One reading interrupted for a long time hardly counts.
        let interrupted = speed(&[reference, reference, reference, 10_000 * reference]).unwrap();
        assert!((interrupted - 0.75).abs() < 0.001);
    }
}
