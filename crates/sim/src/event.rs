//! Virtual time.

/// Virtual microseconds since simulation start.
pub type Micros = u64;
