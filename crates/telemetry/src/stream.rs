//! Line-framed JSONL stream readers shared by the live-status and
//! supervisor bins.
//!
//! Two consumers tail newline-delimited JSON in this workspace: the
//! `campaign_status` bin polls shard event files on disk, and the
//! campaign supervisor reads worker protocol lines off child pipes.
//! Both need the same two behaviours, which used to be duplicated ad
//! hoc:
//!
//! * **Partial-line buffering** — a read may end mid-line, or inside a
//!   multi-byte character; the fragment must be held back as bytes and
//!   prepended to the next chunk instead of being decoded, parsed (or
//!   dropped) early. [`LineFramer`] owns exactly that: it decodes each
//!   line once, when its terminator arrives.
//! * **Truncation-tolerant file tailing** — a byte-offset tail over a
//!   file that assumes append-only stalls forever if the producer
//!   truncates or rotates the file. [`JsonlTail`] detects a shrink,
//!   resets to the new beginning, discards any buffered fragment (it
//!   belonged to the old incarnation), and reports the reset so the
//!   consumer can surface it instead of silently re-counting. It reads
//!   bytes, so a poll that lands while the producer is mid-character
//!   waits for the rest instead of failing.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Splits a byte stream into complete `\n`-terminated lines, buffering
/// any trailing partial line until its terminator arrives.
///
/// Bytes are buffered, not text: a read may end inside a multi-byte
/// character, so each line is decoded only once it is whole. A line that
/// is not UTF-8 decodes lossily; JSONL producers in this workspace always
/// emit UTF-8, so that only happens on a corrupt stream, where a
/// replacement character is strictly better than losing framing.
#[derive(Debug, Default)]
pub struct LineFramer {
    partial: Vec<u8>,
}

impl LineFramer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes, as a pipe or file `read` returned them, and
    /// returns every line completed by them, without trailing newlines.
    /// The trailing fragment (if any) is buffered.
    pub fn push_bytes(&mut self, chunk: &[u8]) -> Vec<String> {
        self.partial.extend_from_slice(chunk);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(len) = self.partial[start..].iter().position(|&b| b == b'\n') {
            let line = &self.partial[start..start + len];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            lines.push(String::from_utf8_lossy(line).into_owned());
            start += len + 1;
        }
        self.partial.drain(..start);
        lines
    }

    /// The buffered partial line, if a chunk ended mid-line.
    pub fn partial(&self) -> &[u8] {
        &self.partial
    }

    /// Drops any buffered fragment (used when the underlying stream is
    /// reset and the fragment belonged to the old incarnation).
    pub fn clear(&mut self) {
        self.partial.clear();
    }
}

/// The result of one [`JsonlTail::poll`].
#[derive(Debug, Default)]
pub struct TailPoll {
    /// Complete lines read since the previous poll, in order.
    pub lines: Vec<String>,
    /// True if the file shrank (truncation or rotation) and the tail
    /// restarted from the beginning. `lines` then starts at the new
    /// file's first line.
    pub reset: bool,
}

/// A byte-offset tail over a JSONL file that tolerates truncation and
/// rotation: on shrink it resets to offset zero instead of stalling.
#[derive(Debug)]
pub struct JsonlTail {
    path: PathBuf,
    offset: u64,
    framer: LineFramer,
    resets: u64,
}

impl JsonlTail {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            offset: 0,
            framer: LineFramer::new(),
            resets: 0,
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total stream resets observed so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Reads everything appended since the last poll. A missing file is
    /// not an error — the producer may not have started yet — it just
    /// yields no lines.
    pub fn poll(&mut self) -> io::Result<TailPoll> {
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(TailPoll::default()),
            Err(err) => return Err(err),
        };
        let len = file.metadata()?.len();
        let mut poll = TailPoll::default();
        if len < self.offset {
            // The producer truncated or rotated the file out from under
            // us. Everything buffered belonged to the old incarnation.
            self.offset = 0;
            self.framer.clear();
            self.resets += 1;
            poll.reset = true;
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut chunk = Vec::new();
        let read = file.read_to_end(&mut chunk)?;
        self.offset += read as u64;
        poll.lines = self.framer.push_bytes(&chunk);
        Ok(poll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write;

    #[test]
    fn framer_buffers_partial_lines_across_chunks() {
        let mut framer = LineFramer::new();
        assert_eq!(framer.push_bytes(b"{\"a\":1}\n{\"b\""), vec!["{\"a\":1}"]);
        assert_eq!(framer.partial(), b"{\"b\"");
        assert_eq!(framer.push_bytes(b":2}\n"), vec!["{\"b\":2}"]);
        assert_eq!(framer.partial(), b"");
    }

    #[test]
    fn framer_splits_multiple_lines_in_one_chunk() {
        let mut framer = LineFramer::new();
        assert_eq!(
            framer.push_bytes(b"one\ntwo\nthree\n"),
            vec!["one", "two", "three"]
        );
        assert!(framer.push_bytes(b"").is_empty());
    }

    #[test]
    fn framer_handles_crlf_and_empty_lines() {
        let mut framer = LineFramer::new();
        assert_eq!(framer.push_bytes(b"a\r\n\nb\n"), vec!["a", "", "b"]);
    }

    #[test]
    fn framer_clear_drops_the_partial_line() {
        let mut framer = LineFramer::new();
        assert_eq!(framer.push_bytes(b"x\ny"), vec!["x"]);
        assert_eq!(framer.partial(), b"y");
        framer.clear();
        assert_eq!(framer.partial(), b"");
    }

    #[test]
    fn tail_reads_appends_incrementally() {
        let dir = std::env::temp_dir().join(format!("lfi_tail_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        fs::write(&path, "first\nsec").unwrap();

        let mut tail = JsonlTail::new(&path);
        let poll = tail.poll().unwrap();
        assert_eq!(poll.lines, vec!["first"]);
        assert!(!poll.reset);

        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"ond\nthird\n").unwrap();
        drop(file);
        let poll = tail.poll().unwrap();
        assert_eq!(poll.lines, vec!["second", "third"]);
        assert_eq!(tail.resets(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_resets_on_truncation_instead_of_stalling() {
        let dir = std::env::temp_dir().join(format!("lfi_tail_trunc_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        fs::write(&path, "old line one\nold line two\npartial").unwrap();

        let mut tail = JsonlTail::new(&path);
        let poll = tail.poll().unwrap();
        assert_eq!(poll.lines.len(), 2);
        assert_eq!(tail.partial_len(), "partial".len());

        // Rotation: the producer starts a fresh, shorter file.
        fs::write(&path, "new\n").unwrap();
        let poll = tail.poll().unwrap();
        assert!(poll.reset, "shrink must be detected as a reset");
        assert_eq!(
            poll.lines,
            vec!["new"],
            "buffered fragment must not leak into the new stream"
        );
        assert_eq!(tail.resets(), 1);

        // And the tail keeps following the new incarnation.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"newer\n").unwrap();
        drop(file);
        assert_eq!(tail.poll().unwrap().lines, vec!["newer"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framer_decodes_a_character_split_across_two_reads() {
        let mut framer = LineFramer::new();
        let line = "{\"frame\":\"é\"}\n".as_bytes();
        let split = line.iter().position(|&b| b == 0xC3).unwrap() + 1;
        assert!(framer.push_bytes(&line[..split]).is_empty());
        assert_eq!(framer.push_bytes(&line[split..]), vec!["{\"frame\":\"é\"}"]);
    }

    #[test]
    fn tail_waits_out_a_character_still_being_written() {
        let dir = std::env::temp_dir().join(format!("lfi_tail_utf8_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let text = "done\ncaf\u{e9}\n".as_bytes();
        // The file ends inside `é`: its second byte is not written yet.
        fs::write(&path, &text[..text.len() - 2]).unwrap();
        let mut tail = JsonlTail::new(&path);
        assert_eq!(tail.poll().unwrap().lines, vec!["done"]);
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&text[text.len() - 2..]).unwrap();
        drop(file);
        assert_eq!(tail.poll().unwrap().lines, vec!["caf\u{e9}"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_missing_file_yields_nothing() {
        let mut tail = JsonlTail::new("/nonexistent/definitely/not/here.jsonl");
        let poll = tail.poll().unwrap();
        assert!(poll.lines.is_empty());
        assert!(!poll.reset);
    }

    impl JsonlTail {
        fn partial_len(&self) -> usize {
            self.framer.partial().len()
        }
    }
}
