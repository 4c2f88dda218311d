//! The one append-only record log: the service's job journal, a store
//! directory's unit records, the run ledger and the flight recorder's
//! export all write through it.
//!
//! A record is one line. [`AppLog::append`] writes a batch of lines with
//! one `write` to a handle opened for appending, under an exclusive
//! advisory lock on the file, so appenders in any number of handles and
//! processes never interleave. Under the same lock it first cuts a torn
//! tail — a last line without its `\n`, left by a writer killed
//! mid-`write` or by a failed write — back to the last `\n`. So a torn
//! prefix is never completed into a line by the next record, and a record
//! appended after a torn tail always replays. The owner of a log bounds
//! it by compaction: [`AppLog::rewrite`] replaces the file through
//! [`write_atomic`], and the next append reopens it.
//!
//! A replayed log is an optional header line, then sealed lines: [`seal`]
//! prefixes a line with the FNV-1a hash ([`fnv1a64`]) of the rest.
//! [`read`] reads the whole log, up to [`MAX_BYTES`], under a shared lock
//! into one buffer, and [`unseal_lines`] checks each seal there and hands
//! each intact payload, borrowed from the buffer, to the caller. The
//! buffer stays the one copy of the text: [`replay`], the reader of the
//! journal and the ledger, parses each payload as it is handed over,
//! while a store directory's unit records keep the buffer resident and
//! index their records in it, after [`split`] has cut it into runs of
//! whole lines that workers check apart. A line that damage changed — a
//! NUL from a torn write, bytes that are not UTF-8, a flipped bit —
//! fails its seal and, like a line the parser rejects or an unfinished
//! last line, counts as damage.
//! [`escape`] keeps any text on one tab-free line, so tabs can separate
//! fields. There is no fsync: a line survives a SIGKILL once its `write`
//! returns.

use crate::atomic::write_atomic;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Largest log [`read`] reads: room for millions of records, and still
/// a bound on the allocation.
pub const MAX_BYTES: u64 = 1 << 30;

/// FNV-1a 64-bit over `bytes`: the one stable content hash behind every
/// line seal, persistent name and digest (tile-store shards, ledger keys,
/// job and unit digests, backoff jitter seeds). Unlike `DefaultHasher`,
/// whose keys are unspecified, it is stable across processes and
/// platforms, so what is named by it survives a restart.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a64`] of four byte strings at once. Each hash is a chain of
/// dependent multiplies; four chains side by side keep the multiplier
/// busy, so a replay checks seals about three times faster than one
/// chain at a time.
fn fnv1a64_x4(parts: [&[u8]; 4]) -> [u64; 4] {
    let common = parts.iter().map(|p| p.len()).min().unwrap_or(0);
    let [a, b, c, d] = parts.map(|p| &p[..common]);
    let mut h = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        h = [(h[0], a), (h[1], b), (h[2], c), (h[3], d)].map(|(h, x)| fnv1a64_from(h, &[x]));
    }
    std::array::from_fn(|i| fnv1a64_from(h[i], &parts[i][common..]))
}

/// Escapes backslashes, newlines and tabs, so any text fits on one line
/// and tabs can separate escaped fields.
#[must_use]
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

/// Undoes [`escape`]. Text without a backslash is borrowed as it is, so
/// the common escape-free field costs no copy.
#[must_use]
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// `payload` (one line, without its `\n`) as a sealed line: the 16 hex
/// digits of its [`fnv1a64`], a space, the payload and `\n`.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()))
}

/// The payloads of up to four lines (each with its `\n`), `None` for
/// each that is unfinished, fails its seal or is not UTF-8, checked four
/// at a time. A sealed line is UTF-8 as written, so bytes that are not
/// fail the seal or, on a collision, this check.
fn unseal4(lines: [&[u8]; 4]) -> [Option<&str>; 4] {
    let split = lines.map(|line| {
        let (sum, payload) = line.strip_suffix(b"\n")?.split_at_checked(16)?;
        let sum = sum.iter().try_fold(0, |h: u64, &b| {
            Some(h << 4 | u64::from(char::from(b).to_digit(16)?))
        })?;
        Some((sum, payload.strip_prefix(b" ")?))
    });
    let sums = fnv1a64_x4(split.map(|s| s.map_or(&b""[..], |(_, payload)| payload)));
    std::array::from_fn(|i| {
        split[i]
            .filter(|(sum, _)| *sum == sums[i])
            .and_then(|(_, payload)| std::str::from_utf8(payload).ok())
    })
}

/// The offset of the first `byte` in `bytes`: how log readers find line
/// ends and field separators. Blocks of 16 bytes are tested at once,
/// which the compiler vectorizes; a byte-at-a-time scan would cost as
/// much as checking the seals.
#[must_use]
pub fn find(bytes: &[u8], byte: u8) -> Option<usize> {
    let mut blocks = bytes.chunks_exact(16);
    let mut at = 0;
    for block in &mut blocks {
        if block.iter().fold(false, |any, &b| any | (b == byte)) {
            break;
        }
        at += 16;
    }
    bytes[at..].iter().position(|&b| b == byte).map(|i| at + i)
}

/// Checks the seal of every line of `text` (a log's lines, or a run of
/// them that [`split`] cut) four at a time, and hands each intact
/// payload and its offset in `text` to `take`, which says whether it
/// took it. Returns the number of damaged lines: those that fail their
/// seal or that `take` rejected, and an unfinished last line.
pub fn unseal_lines(text: &[u8], mut take: impl FnMut(usize, &str) -> bool) -> u64 {
    let mut damaged = 0;
    let mut at = 0;
    while at < text.len() {
        let mut lines = [(0, &b""[..]); 4];
        for line in &mut lines {
            if at < text.len() {
                let end = find(&text[at..], b'\n').map_or(text.len(), |i| at + i + 1);
                *line = (at, &text[at..end]);
                at = end;
            }
        }
        let payloads = unseal4(lines.map(|(_, line)| line));
        for ((start, line), payload) in lines.into_iter().zip(payloads) {
            // The sum and its space lead the payload.
            if !line.is_empty() && !payload.is_some_and(|p| take(start + 17, p)) {
                damaged += 1;
            }
        }
    }
    damaged
}

/// Splits `text`, a log's lines, into runs of whole lines of at least
/// `size` bytes each (but the last), so that workers can check them
/// apart: each run but the last ends with its `\n`.
#[must_use]
pub fn split(text: &[u8], size: usize) -> Vec<Range<usize>> {
    let mut runs = Vec::with_capacity(text.len() / size.max(1) + 1);
    let mut start = 0;
    while start < text.len() {
        let from = (start + size.max(1)).min(text.len()) - 1;
        let end = find(&text[from..], b'\n').map_or(text.len(), |i| from + i + 1);
        runs.push(start..end);
        start = end;
    }
    runs
}

/// An append-only line log at one path (see the [module docs](self)).
/// Appends through one handle are serialized by `&mut`; handles and
/// processes sharing the file are serialized by its lock.
#[derive(Debug)]
pub struct AppLog {
    path: PathBuf,
    /// The append handle, opened by the first append after creation or a
    /// rewrite and kept.
    file: Option<File>,
}

impl AppLog {
    /// A log at `path`; nothing is opened or created until an append.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        AppLog {
            path: path.into(),
            file: None,
        }
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `lines` (whole lines, each ending in `\n`) with one
    /// `write` under the log's exclusive lock, first cutting a torn tail
    /// back to its last `\n`. Creates the log and its directory on first
    /// use. Returns the log's length after the write, for the owner's
    /// compaction policy.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, open, lock, read, truncate or write
    /// failures. A partial write is cut off by the next append.
    pub fn append(&mut self, lines: &[u8]) -> io::Result<u64> {
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(open(&self.path)?),
        };
        file.lock()?;
        let written = cut_torn_tail(file).and_then(|len| {
            file.write_all(lines)?;
            Ok(len + lines.len() as u64)
        });
        let _ = file.unlock();
        written
    }

    /// Replaces the log with `text` (whole lines) in one atomic write: a
    /// compaction. The next append reopens the new file.
    ///
    /// # Errors
    ///
    /// Propagates [`write_atomic`] failures; the old log then stays.
    pub fn rewrite(&mut self, text: &[u8]) -> io::Result<()> {
        self.file = None;
        write_atomic(&self.path, text)
    }
}

/// Opens `path` for reading and appending, creating it and its directory.
fn open(path: &Path) -> io::Result<File> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    File::options()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// Cuts a last line that lacks its `\n` off `file`, scanning back from
/// the end a block at a time; returns the length that remains.
fn cut_torn_tail(file: &mut File) -> io::Result<u64> {
    let len = file.seek(SeekFrom::End(0))?;
    let mut end = len;
    let mut block = [0; 512];
    while end > 0 {
        let n = end.min(block.len() as u64);
        let block = &mut block[..n as usize];
        file.seek(SeekFrom::Start(end - n))?;
        file.read_exact(block)?;
        if let Some(newline) = block.iter().rposition(|&b| b == b'\n') {
            end -= n - 1 - newline as u64;
            break;
        }
        end -= n;
    }
    if end < len {
        file.set_len(end)?;
    }
    Ok(end)
}

/// Reads the whole log at `path` under a shared lock, into the one
/// buffer its reader indexes in place; `None` when there is no log.
///
/// # Errors
///
/// Propagates open, lock and read failures, and refuses a log larger
/// than [`MAX_BYTES`].
pub fn read(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut file = match File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        file => file?,
    };
    file.lock_shared()?;
    let len = file.metadata()?.len();
    if len > MAX_BYTES {
        return Err(io::ErrorKind::FileTooLarge.into());
    }
    let mut text = Vec::with_capacity(len as usize);
    file.read_to_end(&mut text)?;
    Ok(Some(text))
}

/// Reads the log at `path` ([`read`]) and replays it. A log with a
/// `header` must start with that line, or nothing else is parsed and the
/// log counts one damaged line. Every other line must be sealed.
/// `parser` is called once with the number of lines that follow, so the
/// caller can size its storage once, and returns the parser that gets
/// each intact payload and says whether it took it. Returns the
/// number of damaged lines ([`unseal_lines`]), or `None` when there is
/// no log.
///
/// # Errors
///
/// Propagates [`read`] failures.
pub fn replay<P: FnMut(&str) -> bool>(
    path: &Path,
    header: Option<&str>,
    parser: impl FnOnce(usize) -> P,
) -> io::Result<Option<u64>> {
    let Some(text) = read(path)? else {
        return Ok(None);
    };
    let mut body = &text[..];
    if let Some(header) = header {
        let first = &body[..find(body, b'\n').map_or(body.len(), |i| i + 1)];
        if !first.is_empty() && first.strip_suffix(b"\n") != Some(header.as_bytes()) {
            return Ok(Some(1));
        }
        body = &body[first.len()..];
    }
    let mut parse = parser(body.iter().filter(|&&b| b == b'\n').count());
    Ok(Some(unseal_lines(body, |_, payload| parse(payload))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh log path per test or property case.
    fn case_path(tag: &str) -> PathBuf {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eureka-applog-{tag}-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("test.log")
    }

    /// Every payload the log at `path` replays, and its damage count.
    fn replayed(path: &Path) -> (Vec<String>, u64) {
        let mut payloads = Vec::new();
        let damaged = replay(path, None, |_| {
            |payload: &str| {
                payloads.push(payload.to_string());
                true
            }
        })
        .expect("the log reads")
        .unwrap_or(0);
        (payloads, damaged)
    }

    fn unseal(line: &str) -> Option<&str> {
        unseal4([line.as_bytes(), b"", b"", b""])[0]
    }

    fn remove(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: names and seals must survive process restarts.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn seals_reject_every_changed_line() {
        let line = seal("accepted spec");
        assert_eq!(
            line,
            format!("{:016x} accepted spec\n", fnv1a64(b"accepted spec"))
        );
        assert_eq!(unseal(&line), Some("accepted spec"));
        for bad in [
            line.replacen("spec", "spe\0", 1),
            line.replacen("spec", "spe\u{fffd}", 1),
            line.replacen(' ', "  ", 1),
            format!("+{}", &line[1..]),
            line.trim_end().to_string(),
            line[..20].to_string(),
            "garbage\n".to_string(),
        ] {
            assert_eq!(unseal(&bad), None, "{bad:?}");
        }
        // Four lanes of unequal lengths hash as one lane each.
        let parts: [&[u8]; 4] = [b"", b"a", b"longer line", b"mid"];
        assert_eq!(fnv1a64_x4(parts), parts.map(fnv1a64));
    }

    #[test]
    fn a_header_must_lead_the_log() {
        let path = case_path("header");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let body = seal("record");
        for (text, want) in [
            (String::new(), (0, 0)),
            (format!("head v1\n{body}"), (1, 0)),
            (format!("head v2\n{body}"), (0, 1)),
            (format!("head v9\n{body}"), (1, 0)),
            ("head v".to_string(), (1, 0)),
        ] {
            std::fs::write(&path, &text).unwrap();
            let mut taken = 0;
            let damaged = replay(&path, Some("head v2"), |_| {
                |_: &str| {
                    taken += 1;
                    true
                }
            });
            assert_eq!((damaged.unwrap().unwrap(), taken), want, "{text:?}");
        }
        remove(&path);
    }

    #[test]
    fn an_absent_log_is_none_and_creating_a_handle_touches_nothing() {
        let path = case_path("absent");
        let _log = AppLog::new(&path);
        assert_eq!(replay(&path, None, |_| |_: &str| true).unwrap(), None);
        assert!(!path.parent().unwrap().exists());
    }

    #[test]
    fn rewrite_compacts_and_appends_follow_it() {
        let path = case_path("rewrite");
        let mut log = AppLog::new(&path);
        for i in 0..5 {
            log.append(seal(&format!("old {i}")).as_bytes()).unwrap();
        }
        log.rewrite(seal("kept").as_bytes()).unwrap();
        let len = log.append(seal("new").as_bytes()).unwrap();
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(replayed(&path), (vec!["kept".into(), "new".into()], 0));
        remove(&path);
    }

    /// Characters that stress the line format: the escapes' own
    /// characters, carriage returns, spaces and non-ASCII text.
    const ALPHABET: [char; 10] = ['a', 'n', 't', '\\', '\n', '\t', '\r', ' ', 'é', '→'];

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// The sealed lines of `payloads` and the offset where each ends.
    fn sealed(payloads: &[String]) -> (Vec<u8>, Vec<usize>) {
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for payload in payloads {
            log.extend(seal(&escape(payload)).into_bytes());
            ends.push(log.len());
        }
        (log, ends)
    }

    /// Text a damaged log may gain: line breaks, NULs, replacement
    /// characters and stray bytes.
    const SNIPPETS: [&str; 6] = ["", "\n", "\0", "\u{fffd}", "x", "é"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn escaped_text_is_one_tab_free_line_and_round_trips(s in text()) {
            let escaped = escape(&s);
            prop_assert!(!escaped.contains('\n') && !escaped.contains('\t'));
            prop_assert_eq!(unescape(&escaped), s);
        }

        /// A kill mid-append leaves the log cut at any byte: replay keeps
        /// every record whose line is whole and counts the torn one.
        #[test]
        fn truncation_at_every_byte_loses_at_most_the_torn_record(
            payloads in prop::collection::vec(text(), 1..6),
        ) {
            let (log, ends) = sealed(&payloads);
            let path = case_path("truncated");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            for cut in 0..=log.len() {
                std::fs::write(&path, &log[..cut]).unwrap();
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let want: Vec<String> = payloads[..whole].iter().map(|p| escape(p)).collect();
                let torn = !(cut == 0 || ends.contains(&cut));
                prop_assert_eq!(replayed(&path), (want, u64::from(torn)), "cut at byte {}", cut);
            }
            remove(&path);
        }

        /// An append after a torn tail cuts the tail off and replays, and
        /// so does every whole record before it.
        #[test]
        fn a_record_appended_after_a_torn_tail_always_replays(
            payloads in prop::collection::vec(text(), 1..6),
        ) {
            let (log, ends) = sealed(&payloads);
            let path = case_path("torn");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            for cut in 0..=log.len() {
                std::fs::write(&path, &log[..cut]).unwrap();
                AppLog::new(&path).append(seal("later").as_bytes()).unwrap();
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let mut want: Vec<String> = payloads[..whole].iter().map(|p| escape(p)).collect();
                want.push("later".into());
                prop_assert_eq!(replayed(&path), (want, 0), "cut at byte {}", cut);
            }
            remove(&path);
        }

        /// Damage anywhere costs exactly the lines it touched: every line
        /// left as written replays, every other line counts as damaged,
        /// and nothing replays that was not written.
        #[test]
        fn damage_stays_in_its_own_line(
            payloads in prop::collection::vec(text(), 1..6),
            edits in prop::collection::vec((any::<u64>(), 0..SNIPPETS.len(), 0usize..4), 1..4),
        ) {
            let (log, _) = sealed(&payloads);
            let written: Vec<String> = String::from_utf8(log.clone()).unwrap()
                .split_inclusive('\n').map(str::to_string).collect();
            let mut text = String::from_utf8(log).unwrap();
            for (at, snippet, cut) in edits {
                let mut at = (at % (text.len() as u64 + 1)) as usize;
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + cut).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                text.replace_range(at..end, SNIPPETS[snippet]);
            }
            let path = case_path("damage");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &text).unwrap();
            let (mut want, mut want_damaged) = (Vec::new(), 0);
            for line in text.split_inclusive('\n') {
                if written.iter().any(|w| w == line) {
                    want.push(unseal(line).unwrap().to_string());
                } else {
                    want_damaged += 1;
                }
            }
            prop_assert_eq!(replayed(&path), (want, want_damaged));
            remove(&path);
        }
    }

    /// Every payload `unseal_lines` hands over, with its offset, and the
    /// damage count, for `text` checked run by run as [`split`] cuts it
    /// at `size`.
    fn unsealed_in_runs(text: &[u8], size: usize) -> (Vec<(usize, String)>, u64) {
        let (mut payloads, mut damaged) = (Vec::new(), 0);
        let mut end = 0;
        for run in split(text, size) {
            assert_eq!(run.start, end, "runs cover the text in order");
            end = run.end;
            assert!(run.end == text.len() || text[run.end - 1] == b'\n');
            damaged += unseal_lines(&text[run.clone()], |at, payload| {
                payloads.push((run.start + at, payload.to_string()));
                true
            });
        }
        assert_eq!(end, text.len(), "runs cover the whole text");
        (payloads, damaged)
    }

    /// A torn line, a NUL line, bytes that are not UTF-8 and an
    /// unfinished last line count once each wherever a split falls — at
    /// the start or the end of a run — and every intact payload is
    /// handed over once, at its offset.
    #[test]
    fn damage_counts_once_at_every_split_point() {
        let mut text = Vec::new();
        let mut want = Vec::new();
        let mut push = |text: &mut Vec<u8>, payload: &str| {
            want.push((text.len() + 17, payload.to_string()));
            text.extend(seal(payload).into_bytes());
        };
        push(&mut text, "first");
        let torn = seal("torn record");
        text.extend(&torn.as_bytes()[..torn.len() - 4]);
        text.push(b'\n');
        push(&mut text, "second é");
        text.extend(
            seal("a torn write's NULs")
                .replace("NULs", "\0\0\0\0")
                .into_bytes(),
        );
        push(&mut text, "third");
        let mut invalid = seal("bytes").into_bytes();
        invalid[18] = 0xff;
        text.extend(invalid);
        push(&mut text, "last");
        text.extend(&seal("unfinished").as_bytes()[..10]);
        for size in 1..=text.len() + 1 {
            assert_eq!(
                unsealed_in_runs(&text, size),
                (want.clone(), 4),
                "runs of {size} bytes"
            );
        }
    }

    /// Two handles, each shared by threads taking turns on it, append to
    /// one file at once: every line replays whole, none is damaged or
    /// lost, and each thread's lines keep their order.
    #[test]
    fn concurrent_appenders_never_interleave() {
        const THREADS: usize = 4;
        const LINES: usize = 200;
        let path = case_path("concurrent");
        let handles = [(); 2].map(|()| std::sync::Mutex::new(AppLog::new(&path)));
        std::thread::scope(|scope| {
            for thread in 0..2 * THREADS {
                let handle = &handles[thread % 2];
                scope.spawn(move || {
                    for i in 0..LINES {
                        // Long enough to need several blocks of the tail scan.
                        let payload = format!("{thread} {i} {}", "x".repeat(600 + i));
                        let mut log = handle.lock().unwrap();
                        log.append(seal(&payload).as_bytes()).expect("append");
                    }
                });
            }
        });
        let (payloads, damaged) = replayed(&path);
        assert_eq!(damaged, 0);
        assert_eq!(payloads.len(), 2 * THREADS * LINES);
        for thread in 0..2 * THREADS {
            let order: Vec<usize> = payloads
                .iter()
                .filter_map(|p| {
                    let (writer, rest) = p.split_once(' ')?;
                    let (i, _) = rest.split_once(' ')?;
                    (writer == thread.to_string()).then(|| i.parse().unwrap())
                })
                .collect();
            assert_eq!(order, (0..LINES).collect::<Vec<_>>(), "thread {thread}");
        }
        remove(&path);
    }
}
