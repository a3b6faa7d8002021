//! Everything the program under test is fed, made from `--seed`: the
//! synthetic knowledge base, the question sets, the Zipf key sampler
//! of `ask_hot` and the operation schedule of `live_update`.

use std::collections::HashSet;

use uniask_corpus::{CorpusGenerator, KbDocument, KnowledgeBase, QuestionGenerator};

use crate::config::{Scale, LIVE_ASK_SHARE, UPSERT_SHARE};

/// SplitMix64: the harness's own generator, so that schedules do not
/// depend on the crates under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for any `n`
    /// the benchmark uses).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

/// One question with the generator's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    pub text: String,
    /// Ids of the documents that answer it.
    pub relevant: Vec<String>,
    /// From the keyword dataset (else the human dataset).
    pub keyword: bool,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub kb: KnowledgeBase,
    /// The cold set: human and keyword questions (paper mix 77/23),
    /// distinct texts, in a seeded fixed order.
    pub questions: Vec<Question>,
    /// Warm-up questions from a differently seeded generator.
    pub warmup: Vec<String>,
}

/// Generate the knowledge base and the question sets for `seed`.
pub fn generate(seed: u64, scale: &Scale) -> Inputs {
    let generator = CorpusGenerator::new(scale.corpus(), seed);
    let kb = generator.generate();
    let vocabulary = generator.vocabulary();

    // Keyword queries are one or two title words and repeat often, so
    // twice the target is generated and the first distinct ones kept:
    // every text is its own cache key.
    let questions_of = QuestionGenerator::new(&kb, vocabulary, seed);
    let mut seen = HashSet::new();
    let mut distinct = |records: Vec<uniask_corpus::QueryRecord>, keyword: bool, keep: usize| {
        records
            .into_iter()
            .filter(|r| seen.insert(r.text.clone()))
            .take(keep)
            .map(|r| Question {
                text: r.text,
                relevant: r.relevant,
                keyword,
            })
            .collect::<Vec<_>>()
    };
    let mut questions = distinct(
        questions_of
            .human_dataset(scale.human_questions * 2)
            .queries,
        false,
        scale.human_questions,
    );
    questions.extend(distinct(
        questions_of
            .keyword_dataset(scale.keyword_queries * 2)
            .queries,
        true,
        scale.keyword_queries,
    ));
    shuffle(&mut questions, &mut SplitMix64::new(seed ^ 0x5155_4553));

    // Warm-up questions come from outside the set: one that repeated a
    // set question would leave a cache entry behind for it.
    let warmup = QuestionGenerator::new(&kb, vocabulary, seed ^ 0x5741_524D)
        .human_dataset(scale.warmup * 2)
        .queries
        .into_iter()
        .map(|r| r.text)
        .filter(|text| seen.insert(text.clone()))
        .take(scale.warmup)
        .collect();
    Inputs {
        kb,
        questions,
        warmup,
    }
}

/// Fisher-Yates with the harness generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no keys");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One operation of the `live_update` interleave. Indices point into
/// `Inputs::questions` and `Inputs::kb.documents`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveOp {
    Ask {
        question: usize,
    },
    /// Replace the page with a revision carrying marker number `marker`.
    Upsert {
        doc: usize,
        marker: u64,
    },
    Delete {
        doc: usize,
    },
}

/// The endless seeded schedule of `live_update`. Updates only ever
/// touch pages that are still live, so no operation is expected to fail.
#[derive(Debug, Clone)]
pub struct LiveSchedule {
    rng: SplitMix64,
    questions: usize,
    live: Vec<usize>,
    next_question: usize,
    next_marker: u64,
}

impl LiveSchedule {
    pub fn new(seed: u64, documents: usize, questions: usize) -> Self {
        assert!(documents > 0 && questions > 0, "empty inputs");
        LiveSchedule {
            rng: SplitMix64::new(seed ^ 0x4C49_5645),
            questions,
            live: (0..documents).collect(),
            next_question: 0,
            next_marker: 0,
        }
    }
}

impl Iterator for LiveSchedule {
    type Item = LiveOp;

    fn next(&mut self) -> Option<LiveOp> {
        if self.rng.next_f64() < LIVE_ASK_SHARE || self.live.len() <= 1 {
            let question = self.next_question;
            self.next_question = (self.next_question + 1) % self.questions;
            return Some(LiveOp::Ask { question });
        }
        let slot = self.rng.below(self.live.len());
        if self.rng.next_f64() < UPSERT_SHARE {
            self.next_marker += 1;
            Some(LiveOp::Upsert {
                doc: self.live[slot],
                marker: self.next_marker,
            })
        } else {
            Some(LiveOp::Delete {
                doc: self.live.swap_remove(slot),
            })
        }
    }
}

/// The unique token of marker number `n`: `zzk` plus five consonants,
/// which the Italian analyzer neither stops nor stems.
pub fn marker_token(n: u64) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnpqrstvwxz";
    let mut token = String::from("zzk");
    let mut rest = n;
    for _ in 0..5 {
        token.push(CONSONANTS[(rest % CONSONANTS.len() as u64) as usize] as char);
        rest /= CONSONANTS.len() as u64;
    }
    token
}

/// The revision of `doc` that update number `marker` publishes: same
/// id and body, the marker token in the title and in a new paragraph.
pub fn revised_page(doc: &KbDocument, marker: u64) -> KbDocument {
    let token = marker_token(marker);
    let mut page = doc.clone();
    page.title = format!("{} {token}", doc.title);
    page.html.push_str(&format!(
        "<p>Revisione {token} pubblicata sulla intranet.</p>"
    ));
    page.last_modified += marker;
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let zipf = Zipf::new(400, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..10_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1), "equal seeds give equal draws");
        assert_ne!(draw(1), draw(2), "different seeds differ");
        let sample = draw(3);
        assert!(sample.iter().all(|&k| k < 400));
        let share = |rank| sample.iter().filter(|&&k| k == rank).count() as f64 / 10_000.0;
        // H(400) = 6.57: rank 0 has weight 1/6.57 = 0.152, rank 1 half of it.
        assert!((share(0) - 0.152).abs() < 0.02, "rank 0 share {}", share(0));
        assert!(
            (share(1) - 0.076).abs() < 0.015,
            "rank 1 share {}",
            share(1)
        );
    }

    #[test]
    fn live_schedule_is_seeded_and_keeps_its_mix() {
        let take = |seed| {
            LiveSchedule::new(seed, 500, 100)
                .take(4_000)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(42), take(42), "equal seeds give equal schedules");
        assert_ne!(take(42), take(43), "different seeds differ");
        let ops = take(42);
        let asks = ops
            .iter()
            .filter(|op| matches!(op, LiveOp::Ask { .. }))
            .count();
        let upserts = ops
            .iter()
            .filter(|op| matches!(op, LiveOp::Upsert { .. }))
            .count();
        let deletes = ops.len() - asks - upserts;
        assert!((asks as f64 / 4_000.0 - 0.80).abs() < 0.03, "asks {asks}");
        assert!((upserts as f64 / (upserts + deletes) as f64 - 0.80).abs() < 0.05);
        // Markers are unique and no page is touched after its delete.
        let mut deleted = HashSet::new();
        let mut markers = HashSet::new();
        for op in &ops {
            match *op {
                LiveOp::Upsert { doc, marker } => {
                    assert!(!deleted.contains(&doc), "upsert of a deleted page");
                    assert!(markers.insert(marker));
                }
                LiveOp::Delete { doc } => assert!(deleted.insert(doc), "deleted twice"),
                LiveOp::Ask { question } => assert!(question < 100),
            }
        }
    }

    #[test]
    fn marker_tokens_are_distinct_letters_only() {
        let tokens: HashSet<String> = (0..5_000).map(marker_token).collect();
        assert_eq!(tokens.len(), 5_000);
        assert!(tokens
            .iter()
            .all(|t| t.len() == 8 && t.bytes().all(|b| b.is_ascii_lowercase())));
    }

    #[test]
    fn inputs_are_seeded() {
        let scale = Scale::smoke();
        let a = generate(5, &scale);
        let b = generate(5, &scale);
        let c = generate(6, &scale);
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.warmup, b.warmup);
        assert_ne!(a.questions, c.questions);
        let texts: HashSet<&str> = a.questions.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(
            texts.len(),
            a.questions.len(),
            "every question is its own cache key"
        );
        assert!(a.questions.iter().any(|q| q.keyword) && a.questions.iter().any(|q| !q.keyword));
        assert!(
            a.warmup.iter().all(|w| !texts.contains(w.as_str())),
            "warm-up questions come from outside the set"
        );
    }
}
