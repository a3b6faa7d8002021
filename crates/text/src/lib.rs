//! # uniask-text
//!
//! Text-analysis substrate for UniAsk: tokenization, an Italian analysis
//! chain equivalent to Lucene's `it-analyzer` (lower-casing, stop-word
//! removal, light Italian stemming), lexical similarity measures
//! (ROUGE-L, Jaccard), approximate token counting, a minimal HTML parser,
//! and the two document chunking strategies evaluated in the paper
//! (a recursive character splitter and the HTML-paragraph splitter that
//! shipped in production), and the XXH64 checksum that seals the index,
//! vector and search snapshots.
//!
//! Everything in this crate is deterministic and allocation-conscious:
//! analyzers can be reused across documents and reuse internal buffers
//! where practical.

pub mod analyzer;
pub mod checksum;
pub mod concepts;
pub mod english;
pub mod html;
pub mod ngram;
pub mod rouge;
pub mod similarity;
pub mod splitter;
pub mod stemmer;
pub mod stopwords;
pub mod tokenizer;
pub mod tokens;

pub use analyzer::{Analyzer, ItalianAnalyzer, KeywordAnalyzer};
pub use concepts::{IdentityNormalizer, TermNormalizer};
pub use english::{english_stem, EnglishAnalyzer, Language};
pub use html::{HtmlDocument, HtmlParagraph};
pub use rouge::{rouge_l, RougeScore};
pub use similarity::jaccard;
pub use splitter::{Chunk, HtmlParagraphSplitter, RecursiveCharacterTextSplitter, TextSplitter};
pub use stemmer::italian_stem;
pub use tokenizer::tokenize;
pub use tokens::approx_token_count;
