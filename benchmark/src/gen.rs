//! Seeded input generators. Each returns the bytes the system under test
//! receives *together with the expected answer*, so no evaluator is needed
//! to check the evaluator.
//!
//! Two random streams drive every generator: `shape` is seeded with a
//! constant and decides everything that sizes a document (entry kinds, word
//! lengths, which optional children exist), `text` is seeded from `--seed`
//! and fills in letters, identifiers and field windows. So another seed
//! gives different bytes of exactly the same size, event count and result
//! count, and timings stay comparable across seeds.

/// splitmix64: tiny, seedable, good enough to pick letters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The shape stream's seed: the same for every `--seed`.
const SHAPE_SEED: u64 = 0x5045_5853;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one query must deliver over one input: the number of fragments and
/// the length and FNV-1a hash of their concatenation (each fragment ends in
/// the newline the CLI and the `r` frame both carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub results: u64,
    pub bytes: u64,
    pub hash: u64,
}

impl Answer {
    pub const EMPTY: Answer = Answer {
        results: 0,
        bytes: 0,
        hash: FNV_OFFSET,
    };

    /// Fold a run of output bytes holding `results` complete fragments.
    pub fn absorb(&mut self, bytes: &[u8], results: u64) {
        self.results += results;
        self.bytes += bytes.len() as u64;
        self.hash = fnv1a(self.hash, bytes);
    }
}

/// One document evaluated by one query (`oneshot-*`, `serve-stream`).
pub struct StreamDoc {
    pub query: &'static str,
    pub xml: Vec<u8>,
    pub answer: Answer,
    /// For result `i`, the input offset just past the byte that completes
    /// it: once that much input was supplied the fragment can be delivered.
    /// Ascending. The paced phases time delivery against it.
    pub determined_at: Vec<u32>,
}

impl StreamDoc {
    /// How many results the first `offset` input bytes determine.
    pub fn results_within(&self, offset: usize) -> u64 {
        self.determined_at
            .partition_point(|&at| at as usize <= offset) as u64
    }
}

fn push_word(out: &mut Vec<u8>, len: u64, text: &mut Rng) {
    for _ in 0..len {
        out.push(b'a' + text.below(26) as u8);
    }
}

/// WordNet-shaped RDF (the paper's Fig. 14 medium dataset, depth 3): a flat
/// run of `Noun`/`Verb`/`Adjective` entries with 1–3 `wordForm`s, a
/// `glossaryEntry` and an optional `hyponymOf`. Query `_*.Noun.wordForm`
/// (class 1, no qualifier): many small results, none ever buffered.
pub fn flat(seed: u64, entries: usize) -> StreamDoc {
    let (mut shape, mut text) = (Rng::new(SHAPE_SEED), Rng::new(seed));
    let mut xml = Vec::with_capacity(entries * 230);
    let mut answer = Answer::EMPTY;
    let mut determined_at = Vec::new();
    xml.extend_from_slice(
        b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
          <rdf:RDF xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\">",
    );
    for _ in 0..entries {
        let kind: &[u8] = match shape.below(10) {
            0..=6 => b"Noun",
            7..=8 => b"Verb",
            _ => b"Adjective",
        };
        xml.push(b'<');
        xml.extend_from_slice(kind);
        xml.extend_from_slice(b" rdf:about=\"http://wordnet.org/concept#");
        xml.extend_from_slice(format!("{:06}", text.below(1_000_000)).as_bytes());
        xml.extend_from_slice(b"\">");
        for _ in 0..1 + shape.below(3) {
            let start = xml.len();
            xml.extend_from_slice(b"<wordForm>");
            push_word(&mut xml, 4 + shape.below(9), &mut text);
            xml.extend_from_slice(b"</wordForm>");
            if kind == b"Noun" {
                let fragment = xml[start..].to_vec();
                answer.absorb(&fragment, 0);
                answer.absorb(b"\n", 1);
                determined_at.push(xml.len() as u32);
            }
        }
        xml.extend_from_slice(b"<glossaryEntry>");
        for w in 0..3 {
            if w > 0 {
                xml.push(b' ');
            }
            push_word(&mut xml, 5 + shape.below(8), &mut text);
        }
        xml.extend_from_slice(b"</glossaryEntry>");
        if shape.below(2) == 0 {
            xml.extend_from_slice(b"<hyponymOf rdf:resource=\"http://wordnet.org/concept#");
            xml.extend_from_slice(format!("{:06}", text.below(1_000_000)).as_bytes());
            xml.extend_from_slice(b"\"></hyponymOf>");
        }
        xml.extend_from_slice(b"</");
        xml.extend_from_slice(kind);
        xml.push(b'>');
    }
    xml.extend_from_slice(b"</rdf:RDF>");
    StreamDoc {
        query: "_*.Noun.wordForm",
        xml,
        answer,
        determined_at,
    }
}

/// Tags of one deep chain, outermost first: `a…z a b c d`, 30 deep.
const CHAIN: &[u8; 30] = b"abcdefghijklmnopqrstuvwxyzabcd";

/// `chains` chains nested 30 deep with one-letter tags. Query
/// `_*.y[_*.c].z`: every chain mints a condition variable at `y` and
/// buffers the `z` candidate, released three levels down when the inner `c`
/// opens — or dropped when `y` closes, because in 15 chains of 16 the inner
/// `c` is a `q`. Engine-bound, results deliberately rare. The seed picks
/// which chain of each 16 is the hit, and the text in `d`.
pub fn deep(seed: u64, chains: usize) -> StreamDoc {
    let mut text = Rng::new(seed);
    let hit_residue = text.below(16) as usize;
    let mut xml = Vec::with_capacity(chains * 216 + 16);
    let mut answer = Answer::EMPTY;
    let mut determined_at = Vec::new();
    xml.extend_from_slice(b"<doc>");
    for i in 0..chains {
        let hit = i % 16 == hit_residue;
        let tag = |level: usize| {
            if level == 28 && !hit {
                b'q'
            } else {
                CHAIN[level]
            }
        };
        let mut z_start = 0;
        for level in 0..CHAIN.len() {
            if level == 25 {
                z_start = xml.len();
            }
            xml.extend_from_slice(&[b'<', tag(level), b'>']);
        }
        push_word(&mut xml, 4, &mut text);
        for level in (0..CHAIN.len()).rev() {
            xml.extend_from_slice(&[b'<', b'/', tag(level), b'>']);
            if level == 25 && hit {
                let fragment = xml[z_start..].to_vec();
                answer.absorb(&fragment, 0);
                answer.absorb(b"\n", 1);
                determined_at.push(xml.len() as u32);
            }
        }
    }
    xml.extend_from_slice(b"</doc>");
    StreamDoc {
        query: "_*.y[_*.c].z",
        xml,
        answer,
        determined_at,
    }
}

/// Number of distinct `fld` names, and of standing `p`/`g` query pairs.
pub const FEED_FIELDS: usize = 128;
/// Fields per catalog document.
pub const FEED_FIELDS_PER_DOC: usize = 8;

/// What one catalog document must deliver before its `end` frame: the
/// number of `r` frames (the `end` frame included) and the wrapping sum of
/// the FNV-1a hashes of their payloads. A sum, because frames of different
/// queries may interleave in any order within a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub frames: u32,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, payload: &[u8]) {
        self.frames += 1;
        self.sum = self.sum.wrapping_add(fnv1a(FNV_OFFSET, payload));
    }
}

/// A cyclic pool of small catalog documents for the standing-query feed
/// (the paper's SDI scenario), already framed for the wire.
pub struct Feed {
    /// Text of the `--queries` file: `p{i}`, `g{i}` for i < 128, and `end`.
    pub queries: String,
    /// Every document as one `D` frame, back to back.
    pub framed: Vec<u8>,
    /// `framed[frame_ends[i - 1]..frame_ends[i]]` is document `i`'s frame.
    pub frame_ends: Vec<usize>,
    /// Expected delivery per document.
    pub digests: Vec<Digest>,
    /// XML bytes (without frame headers) of the whole pool.
    pub xml_bytes: usize,
}

impl Feed {
    pub fn docs(&self) -> usize {
        self.digests.len()
    }

    /// The frames of documents `from..to` (indices into the pool, no wrap).
    pub fn frames(&self, from: usize, to: usize) -> &[u8] {
        let lo = if from == 0 {
            0
        } else {
            self.frame_ends[from - 1]
        };
        &self.framed[lo..self.frame_ends[to - 1]]
    }

    /// Mean XML bytes per document.
    pub fn doc_bytes(&self) -> f64 {
        self.xml_bytes as f64 / self.docs() as f64
    }
}

/// The wire payload of one result: `name_len · name · fragment`.
fn result_payload(name: &str, fragment: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + name.len() + fragment.len());
    p.push(name.len() as u8);
    p.extend_from_slice(name.as_bytes());
    p.extend_from_slice(fragment);
    p
}

/// `docs` catalog documents of one `product` with 8 of the 128 `fld` names
/// (a seeded window), a `meta` child that holds `lang` on every other
/// document, and a closing `<end/>` sentinel. `meta` comes after the fields,
/// so every `g{i}=catalog.product[meta.lang].fld{i}` candidate is buffered
/// until `lang` opens, or dropped at `</product>` when it never does.
pub fn feed(seed: u64, docs: usize) -> Feed {
    let mut text = Rng::new(seed);
    let mut queries = String::new();
    for i in 0..FEED_FIELDS {
        queries.push_str(&format!("p{i}=catalog.product.fld{i:03}\n"));
        queries.push_str(&format!("g{i}=catalog.product[meta.lang].fld{i:03}\n"));
    }
    queries.push_str("end=catalog.end\n");

    let mut feed = Feed {
        queries,
        framed: Vec::with_capacity(docs * 240),
        frame_ends: Vec::with_capacity(docs),
        digests: Vec::with_capacity(docs),
        xml_bytes: 0,
    };
    let mut xml = Vec::new();
    for doc in 0..docs {
        let has_lang = doc % 2 == 0;
        let window = text.below(FEED_FIELDS as u64) as usize;
        let mut digest = Digest::default();
        xml.clear();
        xml.extend_from_slice(b"<catalog><product>");
        for j in 0..FEED_FIELDS_PER_DOC {
            let field = (window + j) % FEED_FIELDS;
            let start = xml.len();
            xml.extend_from_slice(format!("<fld{field:03}>").as_bytes());
            push_word(&mut xml, 3, &mut text);
            xml.extend_from_slice(format!("</fld{field:03}>").as_bytes());
            let mut fragment = xml[start..].to_vec();
            fragment.push(b'\n');
            digest.add(&result_payload(&format!("p{field}"), &fragment));
            if has_lang {
                digest.add(&result_payload(&format!("g{field}"), &fragment));
            }
        }
        let meta: &[u8] = if has_lang {
            b"<meta><lang>en</lang></meta>"
        } else {
            b"<meta><code>en</code></meta>"
        };
        xml.extend_from_slice(meta);
        xml.extend_from_slice(b"</product><end/></catalog>");
        digest.add(&result_payload("end", b"<end></end>\n"));
        crate::wire::put_frame(&mut feed.framed, b'D', &xml);
        feed.frame_ends.push(feed.framed.len());
        feed.digests.push(digest);
        feed.xml_bytes += xml.len();
    }
    feed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_bytes_but_not_sizes_or_counts() {
        let (a, b) = (flat(1, 500), flat(2, 500));
        assert_ne!(a.xml, b.xml);
        assert_eq!(a.xml.len(), b.xml.len());
        assert_eq!(a.answer.results, b.answer.results);
        assert_eq!(a.answer.bytes, b.answer.bytes);
        assert_ne!(a.answer.hash, b.answer.hash);

        let (a, b) = (deep(1, 160), deep(2, 160));
        assert_eq!(a.xml.len(), b.xml.len());
        assert_eq!(a.answer.results, 10);
        assert_eq!(b.answer.results, 10);

        let (a, b) = (feed(1, 64), feed(2, 64));
        assert_ne!(a.framed, b.framed);
        assert_eq!(a.framed.len(), b.framed.len());
        let frames = |f: &Feed| f.digests.iter().map(|d| d.frames).sum::<u32>();
        assert_eq!(frames(&a), 32 * 17 + 32 * 9);
        assert_eq!(frames(&a), frames(&b));
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(flat(7, 200).xml, flat(7, 200).xml);
        assert_eq!(deep(7, 32).xml, deep(7, 32).xml);
        assert_eq!(feed(7, 32).framed, feed(7, 32).framed);
    }

    #[test]
    fn determined_offsets_ascend_and_count_results() {
        let d = flat(3, 300);
        assert!(d.determined_at.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(d.results_within(d.xml.len()), d.answer.results);
        assert_eq!(d.results_within(0), 0);
    }
}
