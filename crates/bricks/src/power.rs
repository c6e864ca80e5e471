//! Per-brick power states and draw model.
//!
//! The TCO study (Section VI of the paper) evaluates how many *individually
//! powered units* can be switched off — bricks in the dReDBox datacenter,
//! whole server nodes in the conventional one — and translates that into
//! energy savings (Figures 12 and 13).

use serde::{Deserialize, Serialize};

use dredbox_sim::units::Watts;

/// Power state of an individually powered unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PowerState {
    /// Completely powered off; draws (approximately) nothing.
    Off,
    /// Powered but running no workload.
    #[default]
    Idle,
    /// Running at least one workload.
    Active,
}

/// Power draw per state for one unit.
///
/// ```
/// use dredbox_bricks::{PowerModel, PowerState};
/// use dredbox_sim::units::Watts;
///
/// let m = PowerModel::new(Watts::new(0.0), Watts::new(20.0), Watts::new(40.0));
/// assert_eq!(m.draw(PowerState::Active).as_watts(), 40.0);
/// assert_eq!(m.draw(PowerState::Off).as_watts(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    off: Watts,
    idle: Watts,
    active: Watts,
}

impl PowerModel {
    /// Creates a power model from per-state draws.
    ///
    /// # Panics
    ///
    /// Panics if the draws are not monotone (`off <= idle <= active`).
    pub fn new(off: Watts, idle: Watts, active: Watts) -> Self {
        assert!(
            off.as_watts() <= idle.as_watts() && idle.as_watts() <= active.as_watts(),
            "power draws must satisfy off <= idle <= active"
        );
        PowerModel { off, idle, active }
    }

    /// Draw in the given state.
    pub fn draw(&self, state: PowerState) -> Watts {
        match state {
            PowerState::Off => self.off,
            PowerState::Idle => self.idle,
            PowerState::Active => self.active,
        }
    }

    /// Draw when active.
    pub fn active(&self) -> Watts {
        self.active
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            off: Watts::ZERO,
            idle: Watts::new(10.0),
            active: Watts::new(30.0),
        }
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_unit_enum!(PowerState { Off = 0, Idle = 1, Active = 2 });
dredbox_snap::snap_struct!(PowerModel { off, idle, active });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_matches_state() {
        let m = PowerModel::new(Watts::new(1.0), Watts::new(5.0), Watts::new(9.0));
        assert_eq!(m.draw(PowerState::Off), m.off);
        assert_eq!(m.draw(PowerState::Idle), m.idle);
        assert_eq!(m.draw(PowerState::Active), m.active());
        assert_eq!(m.off.as_watts(), 1.0);
        assert_eq!(m.idle.as_watts(), 5.0);
        assert_eq!(m.active().as_watts(), 9.0);
    }

    #[test]
    fn default_model_is_monotone() {
        let m = PowerModel::default();
        assert!(m.off.as_watts() <= m.idle.as_watts());
        assert!(m.idle.as_watts() <= m.active().as_watts());
        assert_eq!(PowerState::default(), PowerState::Idle);
    }

    #[test]
    #[should_panic]
    fn non_monotone_model_rejected() {
        let _ = PowerModel::new(Watts::new(10.0), Watts::new(5.0), Watts::new(9.0));
    }
}
