//! Categorical dictionaries from the TPC-H specification.
//!
//! Categorical columns are generated and compared as small integer codes;
//! these tables map codes back to the spec's string values for display and
//! provide the code spaces (cardinalities) used by selectivity math.

/// Market segments (`c_mktsegment`).
pub(crate) const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Ship modes (`l_shipmode`).
pub(crate) const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// The 25 nations, in nation-key order.
pub(crate) const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "RUSSIA",
    "SAUDI ARABIA",
    "UNITED KINGDOM",
    "UNITED STATES",
    "VIETNAM",
];

/// Region key of each nation, aligned with [`NATIONS`]
/// (0 = AFRICA, 1 = AMERICA, 2 = ASIA, 3 = EUROPE, 4 = MIDDLE EAST).
pub(crate) const NATION_REGION: [u32; 25] = [
    0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 3, 4, 3, 1, 2,
];

/// The 5 regions, in region-key order.
pub(crate) const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Number of distinct part brands (`Brand#MN`, M and N in 1..=5).
pub(crate) const N_BRANDS: u32 = 25;

/// Number of distinct part types (6 syllable-1 × 5 syllable-2 × 5 syllable-3).
pub(crate) const N_TYPES: u32 = 150;

/// Number of distinct containers (5 × 8 combinations).
pub(crate) const N_CONTAINERS: u32 = 40;

/// Number of colors in the `p_name` vocabulary; each part name is built
/// from 5 of these, which drives `p_name LIKE '%color%'` selectivity.
pub(crate) const N_COLORS: u32 = 92;

/// Words per part name drawn from the color vocabulary.
pub const NAME_WORDS: u32 = 5;

/// Renders a brand code (0..25) as the spec's `Brand#MN` string.
pub(crate) fn brand_name(code: u32) -> String {
    format!("Brand#{}{}", code / 5 + 1, code % 5 + 1)
}

/// Type syllables for rendering `p_type` codes.
const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Renders a type code (0..150) as `S1 S2 S3`.
pub(crate) fn type_name(code: u32) -> String {
    let s1 = TYPE_S1[(code / 25) as usize % 6];
    let s2 = TYPE_S2[(code / 5 % 5) as usize];
    let s3 = TYPE_S3[(code % 5) as usize];
    format!("{s1} {s2} {s3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nation_region_mapping_is_balanced() {
        // Spec: each region hosts exactly five nations.
        for region in 0..5u32 {
            let n = NATION_REGION.iter().filter(|&&r| r == region).count();
            assert_eq!(n, 5, "region {region} has {n} nations");
        }
    }

    #[test]
    fn brand_codes_render_per_spec() {
        assert_eq!(brand_name(0), "Brand#11");
        assert_eq!(brand_name(24), "Brand#55");
        let all: std::collections::HashSet<String> = (0..N_BRANDS).map(brand_name).collect();
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn type_codes_cover_150_distinct_names() {
        let all: std::collections::HashSet<String> = (0..N_TYPES).map(type_name).collect();
        assert_eq!(all.len(), 150);
        assert_eq!(type_name(0), "STANDARD ANODIZED TIN");
    }

    #[test]
    fn dictionary_sizes_match_constants() {
        assert_eq!(SEGMENTS.len(), 5);
        assert_eq!(SHIP_MODES.len(), 7);
        assert_eq!(NATIONS.len(), 25);
        assert_eq!(REGIONS.len(), 5);
        assert_eq!(NATION_REGION.len(), NATIONS.len());
    }
}
