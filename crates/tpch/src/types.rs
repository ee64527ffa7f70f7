//! Scalar values and calendar helpers shared across the TPC-H substrate.


/// A typed scalar value: the common currency for predicates, parameters
/// and generated row fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// 64-bit integer (keys, counts, sizes).
    Int(i64),
    /// 64-bit float (prices, discounts, balances).
    Float(f64),
    /// Calendar date as days since 1992-01-01 (the TPC-H STARTDATE).
    Date(i32),
    /// Categorical value encoded as a dictionary code (segment, brand, ...).
    Cat(u32),
}

impl Scalar {
    /// Numeric view used for comparisons and histogram bucketing: every
    /// scalar maps onto a total order on f64.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
            Scalar::Date(v) => v as f64,
            Scalar::Cat(v) => v as f64,
        }
    }
}

/// Comparison operators appearing in template predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// Evaluates `left op right` on the numeric view.
    pub fn eval(&self, left: f64, right: f64) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
            CmpOp::Ne => left != right,
        }
    }
}

/// The TPC-H calendar starts at 1992-01-01 (day 0) and ends at 1998-12-31.
pub(crate) const START_YEAR: i32 = 1992;
/// Last day of the TPC-H calendar (1998-12-31) as a day number.
pub(crate) const END_DATE: i32 = 2556;

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Converts a calendar date to days since 1992-01-01.
///
/// # Panics
/// Panics on out-of-range dates (years outside 1992..=1998 are allowed for
/// arithmetic convenience but month/day must be valid).
pub fn date(year: i32, month: u32, day: u32) -> i32 {
    assert!((1..=12).contains(&month), "invalid month {month}");
    let month_idx = (month - 1) as usize;
    let mut max_day = DAYS_IN_MONTH[month_idx];
    if month == 2 && is_leap(year) {
        max_day += 1;
    }
    assert!(
        (1..=max_day as u32).contains(&day),
        "invalid day {day} for {year}-{month:02}"
    );
    let mut days: i32 = 0;
    if year >= START_YEAR {
        for y in START_YEAR..year {
            days += if is_leap(y) { 366 } else { 365 };
        }
    } else {
        for y in year..START_YEAR {
            days -= if is_leap(y) { 366 } else { 365 };
        }
    }
    for (m, &len) in DAYS_IN_MONTH.iter().enumerate().take(month_idx) {
        days += len;
        if m == 1 && is_leap(year) {
            days += 1;
        }
    }
    days + day as i32 - 1
}

/// Formats a day number as `YYYY-MM-DD` for display/logging.
pub(crate) fn format_date(mut days: i32) -> String {
    let mut year = START_YEAR;
    loop {
        let len = if is_leap(year) { 366 } else { 365 };
        if days >= len {
            days -= len;
            year += 1;
        } else if days < 0 {
            year -= 1;
            days += if is_leap(year) { 366 } else { 365 };
        } else {
            break;
        }
    }
    let mut month = 0usize;
    loop {
        let mut len = DAYS_IN_MONTH[month];
        if month == 1 && is_leap(year) {
            len += 1;
        }
        if days >= len {
            days -= len;
            month += 1;
        } else {
            break;
        }
    }
    format!("{year}-{:02}-{:02}", month + 1, days + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(date(1992, 1, 1), 0);
        assert_eq!(date(1992, 1, 2), 1);
        assert_eq!(date(1992, 2, 1), 31);
    }

    #[test]
    fn leap_years_are_respected() {
        // 1992 is a leap year: Feb 29 exists and March 1 is day 60.
        assert_eq!(date(1992, 2, 29), 59);
        assert_eq!(date(1992, 3, 1), 60);
        assert_eq!(date(1993, 1, 1), 366);
    }

    #[test]
    fn end_date_constant_matches_calendar() {
        assert_eq!(date(1998, 12, 31), END_DATE);
    }

    #[test]
    fn format_roundtrips() {
        for &(y, m, d) in &[
            (1992, 1, 1),
            (1992, 2, 29),
            (1995, 3, 15),
            (1998, 12, 31),
            (1994, 1, 1),
        ] {
            let n = date(y, m, d);
            assert_eq!(format_date(n), format!("{y}-{m:02}-{d:02}"));
        }
    }

    #[test]
    #[should_panic(expected = "invalid day")]
    fn rejects_feb_29_in_non_leap_year() {
        date(1993, 2, 29);
    }

    #[test]
    fn scalar_numeric_view_orders_consistently() {
        assert_eq!(Scalar::Int(5).as_f64(), 5.0);
        assert_eq!(Scalar::Date(10).as_f64(), 10.0);
        assert_eq!(Scalar::Cat(3).as_f64(), 3.0);
        assert!(CmpOp::Lt.eval(Scalar::Int(1).as_f64(), Scalar::Int(2).as_f64()));
    }

    #[test]
    fn cmp_ops_evaluate() {
        assert!(CmpOp::Eq.eval(1.0, 1.0));
        assert!(CmpOp::Ne.eval(1.0, 2.0));
        assert!(CmpOp::Le.eval(2.0, 2.0));
        assert!(CmpOp::Ge.eval(2.0, 2.0));
        assert!(CmpOp::Gt.eval(3.0, 2.0));
        assert!(!CmpOp::Lt.eval(3.0, 2.0));
    }
}
