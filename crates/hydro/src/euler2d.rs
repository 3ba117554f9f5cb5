//! Conservative state, primitive conversions and numerical fluxes for the
//! 2D compressible Euler equations.

/// Ratio of specific heats (ideal diatomic gas, the value Miranda's test
//  problems use).
pub const GAMMA: f64 = 1.4;

/// Conservative variables of one cell: density, x/y momentum, total energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Conserved {
    /// Mass density ρ.
    pub rho: f64,
    /// x-momentum ρu.
    pub mx: f64,
    /// y-momentum ρv.
    pub my: f64,
    /// Total energy density E = ρ(e + (u²+v²)/2).
    pub energy: f64,
}

/// Primitive variables: density, velocities and pressure.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Primitive {
    /// Mass density ρ.
    pub rho: f64,
    /// x velocity u.
    pub u: f64,
    /// y velocity v.
    pub v: f64,
    /// Pressure p.
    pub p: f64,
}

impl Conserved {
    /// Build conservative variables from primitives.
    pub fn from_primitive(w: Primitive) -> Conserved {
        let kinetic = 0.5 * w.rho * (w.u * w.u + w.v * w.v);
        Conserved {
            rho: w.rho,
            mx: w.rho * w.u,
            my: w.rho * w.v,
            energy: w.p / (GAMMA - 1.0) + kinetic,
        }
    }

    /// Convert to primitive variables, flooring density and pressure to keep
    /// the scheme alive through strong rarefactions.
    pub fn to_primitive(self) -> Primitive {
        let rho = self.rho.max(1e-10);
        let u = self.mx / rho;
        let v = self.my / rho;
        let kinetic = 0.5 * rho * (u * u + v * v);
        let p = ((self.energy - kinetic) * (GAMMA - 1.0)).max(1e-10);
        Primitive { rho, u, v, p }
    }

    /// Largest signal speed (|u| + c, |v| + c) used for the CFL condition.
    pub fn max_signal_speed(self) -> f64 {
        let w = self.to_primitive();
        let c = (GAMMA * w.p / w.rho).sqrt();
        (w.u.abs() + c).max(w.v.abs() + c)
    }
}

/// Element-wise addition (used by the RK2 update).
impl std::ops::Add for Conserved {
    type Output = Conserved;

    fn add(self, o: Conserved) -> Conserved {
        Conserved {
            rho: self.rho + o.rho,
            mx: self.mx + o.mx,
            my: self.my + o.my,
            energy: self.energy + o.energy,
        }
    }
}

impl Conserved {
    /// Element-wise scaling.
    pub fn scale(self, s: f64) -> Conserved {
        Conserved { rho: self.rho * s, mx: self.mx * s, my: self.my * s, energy: self.energy * s }
    }
}

/// Physical flux in the x direction.
pub fn flux_x(q: Conserved) -> Conserved {
    let w = q.to_primitive();
    Conserved { rho: q.mx, mx: q.mx * w.u + w.p, my: q.my * w.u, energy: (q.energy + w.p) * w.u }
}

/// Physical flux in the y direction.
pub fn flux_y(q: Conserved) -> Conserved {
    let w = q.to_primitive();
    Conserved { rho: q.my, mx: q.mx * w.v, my: q.my * w.v + w.p, energy: (q.energy + w.p) * w.v }
}

/// Rusanov (local Lax–Friedrichs) numerical flux between a left and right
/// state, for the given direction (`true` = x, `false` = y).
pub fn rusanov_flux(left: Conserved, right: Conserved, x_direction: bool) -> Conserved {
    let (fl, fr) =
        if x_direction { (flux_x(left), flux_x(right)) } else { (flux_y(left), flux_y(right)) };
    let smax = left.max_signal_speed().max(right.max_signal_speed());
    Conserved {
        rho: 0.5 * (fl.rho + fr.rho) - 0.5 * smax * (right.rho - left.rho),
        mx: 0.5 * (fl.mx + fr.mx) - 0.5 * smax * (right.mx - left.mx),
        my: 0.5 * (fl.my + fr.my) - 0.5 * smax * (right.my - left.my),
        energy: 0.5 * (fl.energy + fr.energy) - 0.5 * smax * (right.energy - left.energy),
    }
}

/// Minmod slope limiter.
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// A full 2D grid of conservative states with periodic-in-x /
/// reflective-in-y boundary handling helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct EulerState {
    ny: usize,
    nx: usize,
    cells: Vec<Conserved>,
}

impl EulerState {
    /// Create a state grid from an initializer evaluated at cell centres
    /// given as fractions of the domain (`y`, `x` in `[0, 1)`).
    pub fn from_fn<F: FnMut(f64, f64) -> Primitive>(ny: usize, nx: usize, mut init: F) -> Self {
        assert!(ny > 1 && nx > 1, "the solver needs at least a 2x2 grid");
        let mut cells = Vec::with_capacity(ny * nx);
        for i in 0..ny {
            for j in 0..nx {
                let y = (i as f64 + 0.5) / ny as f64;
                let x = (j as f64 + 0.5) / nx as f64;
                cells.push(Conserved::from_primitive(init(y, x)));
            }
        }
        EulerState { ny, nx, cells }
    }

    /// Grid rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Grid columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Immutable cell access with periodic x and clamped (reflective-ish) y.
    #[cfg(test)]
    pub(crate) fn at(&self, i: isize, j: isize) -> Conserved {
        let i = i.clamp(0, self.ny as isize - 1) as usize;
        let j = j.rem_euclid(self.nx as isize) as usize;
        self.cells[i * self.nx + j]
    }

    /// Direct indexed access (no boundary wrapping).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Conserved {
        self.cells[i * self.nx + j]
    }

    /// Mutable direct access.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut Conserved {
        &mut self.cells[i * self.nx + j]
    }

    /// Flat view of the cells.
    pub fn cells(&self) -> &[Conserved] {
        &self.cells
    }

    /// Mutable flat view of the cells.
    pub fn cells_mut(&mut self) -> &mut [Conserved] {
        &mut self.cells
    }

    /// Total mass over the grid (a conserved quantity of the scheme, up to
    /// boundary fluxes in y).
    #[cfg(test)]
    pub(crate) fn total_mass(&self) -> f64 {
        self.cells.iter().map(|c| c.rho).sum()
    }

    /// Largest signal speed over the grid (for the CFL condition).
    pub fn max_signal_speed(&self) -> f64 {
        self.cells.iter().map(|c| c.max_signal_speed()).fold(0.0, f64::max)
    }

    /// Extract the x-velocity field (the paper's `velocityx` variable).
    pub fn velocity_x(&self) -> lcc_grid::Field2D {
        lcc_grid::Field2D::from_fn(self.ny, self.nx, |i, j| {
            let w = self.get(i, j).to_primitive();
            w.u
        })
    }

    /// Extract the density field.
    #[cfg(test)]
    pub(crate) fn density(&self) -> lcc_grid::Field2D {
        lcc_grid::Field2D::from_fn(self.ny, self.nx, |i, j| self.get(i, j).rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_conserved_roundtrip() {
        let w = Primitive { rho: 1.2, u: 0.3, v: -0.8, p: 2.5 };
        let q = Conserved::from_primitive(w);
        let back = q.to_primitive();
        assert!((back.rho - w.rho).abs() < 1e-12);
        assert!((back.u - w.u).abs() < 1e-12);
        assert!((back.v - w.v).abs() < 1e-12);
        assert!((back.p - w.p).abs() < 1e-12);
    }

    #[test]
    fn signal_speed_of_a_gas_at_rest_is_the_ideal_gas_sound_speed() {
        let q = Conserved::from_primitive(Primitive { rho: 1.0, u: 0.0, v: 0.0, p: 1.0 });
        assert!((q.max_signal_speed() - GAMMA.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn floors_protect_against_vacuum() {
        let q = Conserved { rho: -1.0, mx: 0.0, my: 0.0, energy: -5.0 };
        let w = q.to_primitive();
        assert!(w.rho > 0.0);
        assert!(w.p > 0.0);
    }

    #[test]
    fn flux_of_uniform_flow_is_consistent() {
        let w = Primitive { rho: 2.0, u: 3.0, v: -1.0, p: 5.0 };
        let q = Conserved::from_primitive(w);
        let fx = flux_x(q);
        assert!((fx.rho - 6.0).abs() < 1e-12); // ρu
        assert!((fx.mx - (6.0 * 3.0 + 5.0)).abs() < 1e-12); // ρu² + p
        let fy = flux_y(q);
        assert!((fy.rho + 2.0).abs() < 1e-12); // ρv
        assert!((fy.my - (2.0 * 1.0 + 5.0)).abs() < 1e-12); // ρv² + p
    }

    #[test]
    fn rusanov_flux_is_consistent_for_equal_states() {
        let q = Conserved::from_primitive(Primitive { rho: 1.0, u: 0.5, v: 0.2, p: 1.0 });
        let f = rusanov_flux(q, q, true);
        let exact = flux_x(q);
        assert!((f.rho - exact.rho).abs() < 1e-12);
        assert!((f.energy - exact.energy).abs() < 1e-12);
    }

    #[test]
    fn minmod_behaviour() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn state_boundaries_wrap_and_clamp() {
        let s = EulerState::from_fn(4, 4, |y, x| Primitive { rho: 1.0 + y, u: x, v: 0.0, p: 1.0 });
        // Periodic in x.
        assert_eq!(s.at(0, -1), s.get(0, 3));
        assert_eq!(s.at(0, 4), s.get(0, 0));
        // Clamped in y.
        assert_eq!(s.at(-3, 1), s.get(0, 1));
        assert_eq!(s.at(9, 1), s.get(3, 1));
    }

    #[test]
    fn velocity_and_density_extraction() {
        let s = EulerState::from_fn(3, 5, |_, x| Primitive { rho: 2.0, u: x, v: 0.0, p: 1.0 });
        let u = s.velocity_x();
        assert_eq!(u.shape(), (3, 5));
        assert!((u.get(0, 0) - 0.1).abs() < 1e-12);
        let rho = s.density();
        assert!((rho.get(2, 4) - 2.0).abs() < 1e-12);
        assert!((s.total_mass() - 2.0 * 15.0).abs() < 1e-12);
    }
}
