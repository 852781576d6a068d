//! TPC-W interaction mixes.
//!
//! TPC-W groups its fourteen web interactions into *browse* and *order*
//! categories and defines three canonical mixes by their browse/order
//! ratio: **browsing** (95/5), **shopping** (80/20) and **ordering**
//! (50/50). We model five representative interaction classes with relative
//! service demands (order-side interactions hit the database harder); a
//! mix enters the VM model as its mean demand multiplier.

/// A representative TPC-W interaction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionClass {
    /// Home page / product detail (cheap, cacheable).
    Browse,
    /// Full-text and subject search (moderate).
    Search,
    /// Shopping-cart manipulation (moderate, write).
    Cart,
    /// Buy request + confirm (expensive, transactional).
    Buy,
    /// Order inquiry / display (moderate read).
    OrderStatus,
}

impl InteractionClass {
    /// All classes, in canonical order.
    pub const ALL: [InteractionClass; 5] = [
        InteractionClass::Browse,
        InteractionClass::Search,
        InteractionClass::Cart,
        InteractionClass::Buy,
        InteractionClass::OrderStatus,
    ];

    /// Service-demand multiplier relative to the VM's base request demand.
    pub fn demand_multiplier(self) -> f64 {
        match self {
            InteractionClass::Browse => 0.6,
            InteractionClass::Search => 1.2,
            InteractionClass::Cart => 1.0,
            InteractionClass::Buy => 2.2,
            InteractionClass::OrderStatus => 1.1,
        }
    }
}

/// One of the three canonical TPC-W mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TpcwMix {
    /// 95 % browse / 5 % order.
    Browsing,
    /// 80 % browse / 20 % order (the default reporting mix).
    #[default]
    Shopping,
    /// 50 % browse / 50 % order.
    Ordering,
}

impl TpcwMix {
    /// Class probabilities, aligned with [`InteractionClass::ALL`].
    pub fn class_weights(self) -> [f64; 5] {
        match self {
            // browse, search, cart, buy, order-status
            TpcwMix::Browsing => [0.70, 0.25, 0.025, 0.010, 0.015],
            TpcwMix::Shopping => [0.55, 0.25, 0.10, 0.05, 0.05],
            TpcwMix::Ordering => [0.30, 0.20, 0.20, 0.20, 0.10],
        }
    }

    /// Mean service-demand multiplier of the mix (weights the per-request
    /// demand the VM model sees).
    pub fn mean_demand_multiplier(self) -> f64 {
        InteractionClass::ALL
            .iter()
            .zip(self.class_weights())
            .map(|(c, w)| c.demand_multiplier() * w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_distributions() {
        for mix in [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering] {
            let total: f64 = mix.class_weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "{mix:?} sums to {total}");
        }
    }

    #[test]
    fn order_fractions_match_the_spec_ratios() {
        // Cart, buy and order-status are the spec's order side.
        let order = |mix: TpcwMix| mix.class_weights()[2..].iter().sum::<f64>();
        assert!((order(TpcwMix::Browsing) - 0.05).abs() < 1e-12);
        assert!((order(TpcwMix::Shopping) - 0.20).abs() < 1e-12);
        assert!((order(TpcwMix::Ordering) - 0.50).abs() < 1e-12);
    }

    #[test]
    fn ordering_mix_is_heavier_than_browsing() {
        assert!(
            TpcwMix::Ordering.mean_demand_multiplier() > TpcwMix::Browsing.mean_demand_multiplier()
        );
    }

    #[test]
    fn buy_is_the_most_expensive_interaction() {
        let max = InteractionClass::ALL
            .iter()
            .map(|c| c.demand_multiplier())
            .fold(0.0, f64::max);
        assert_eq!(max, InteractionClass::Buy.demand_multiplier());
    }
}
