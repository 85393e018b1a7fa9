//! All-pairs N-body gravity — estimator benchmark application (paper
//! Table 1; from the CUDA SDK). O(n²) force evaluation with leapfrog
//! integration and Plummer softening.

/// One body's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// An N-body system.
#[derive(Debug, Clone)]
pub struct System {
    /// The bodies.
    pub bodies: Vec<Body>,
    /// Softening length (avoids the 1/r² singularity).
    pub softening: f64,
    /// Gravitational constant (1 in simulation units).
    pub g: f64,
}

impl System {
    /// Build a system with default constants.
    pub fn new(bodies: Vec<Body>) -> System {
        System {
            bodies,
            softening: 1e-3,
            g: 1.0,
        }
    }

    /// Deterministic "cold plummer-ish" disc of `n` bodies for benchmarks.
    pub fn disc(n: usize) -> System {
        let bodies = (0..n)
            .map(|i| {
                let a = i as f64 * 2.399_963_229_728_653; // golden angle
                let r = (i as f64 + 0.5).sqrt() / (n as f64).sqrt();
                Body {
                    pos: [r * a.cos(), r * a.sin(), 0.0],
                    vel: [-a.sin() * r.sqrt(), a.cos() * r.sqrt(), 0.0],
                    mass: 1.0 / n as f64,
                }
            })
            .collect();
        System::new(bodies)
    }

    /// All-pairs accelerations (the O(n²) kernel).
    pub(crate) fn accelerations(&self) -> Vec<[f64; 3]> {
        let eps2 = self.softening * self.softening;
        let bodies = &self.bodies;
        bodies
            .iter()
            .map(|bi| {
                let mut acc = [0.0f64; 3];
                for bj in bodies {
                    let dx = bj.pos[0] - bi.pos[0];
                    let dy = bj.pos[1] - bi.pos[1];
                    let dz = bj.pos[2] - bi.pos[2];
                    let r2 = dx * dx + dy * dy + dz * dz + eps2;
                    let inv_r3 = self.g * bj.mass / (r2 * r2.sqrt());
                    acc[0] += dx * inv_r3;
                    acc[1] += dy * inv_r3;
                    acc[2] += dz * inv_r3;
                }
                acc
            })
            .collect()
    }

    /// Advance one leapfrog (kick-drift-kick) step of size `dt`.
    pub fn step(&mut self, dt: f64) {
        let acc = self.accelerations();
        for (b, a) in self.bodies.iter_mut().zip(&acc) {
            for (k, ak) in a.iter().enumerate() {
                b.vel[k] += 0.5 * dt * ak;
                b.pos[k] += dt * b.vel[k];
            }
        }
        let acc2 = self.accelerations();
        for (b, a) in self.bodies.iter_mut().zip(&acc2) {
            for (k, ak) in a.iter().enumerate() {
                b.vel[k] += 0.5 * dt * ak;
            }
        }
    }

    /// Total energy (kinetic + potential), for conservation checks.
    pub fn energy(&self) -> f64 {
        let mut e = 0.0;
        for (i, bi) in self.bodies.iter().enumerate() {
            let v2: f64 = bi.vel.iter().map(|v| v * v).sum();
            e += 0.5 * bi.mass * v2;
            for bj in &self.bodies[i + 1..] {
                let dx = bj.pos[0] - bi.pos[0];
                let dy = bj.pos[1] - bi.pos[1];
                let dz = bj.pos[2] - bi.pos[2];
                let r = (dx * dx + dy * dy + dz * dz + self.softening * self.softening).sqrt();
                e -= self.g * bi.mass * bj.mass / r;
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl System {
        /// Center-of-mass momentum (should stay ~0 for symmetric systems).
        fn momentum(&self) -> [f64; 3] {
            let mut p = [0.0f64; 3];
            for b in &self.bodies {
                for (pk, vk) in p.iter_mut().zip(&b.vel) {
                    *pk += b.mass * vk;
                }
            }
            p
        }
    }

    #[test]
    fn two_body_attraction_is_symmetric() {
        let sys = System::new(vec![
            Body {
                pos: [0.0, 0.0, 0.0],
                vel: [0.0; 3],
                mass: 1.0,
            },
            Body {
                pos: [1.0, 0.0, 0.0],
                vel: [0.0; 3],
                mass: 1.0,
            },
        ]);
        let acc = sys.accelerations();
        assert!(acc[0][0] > 0.0 && acc[1][0] < 0.0);
        assert!((acc[0][0] + acc[1][0]).abs() < 1e-12);
    }

    #[test]
    fn inverse_square_law() {
        let mk = |d: f64| {
            System::new(vec![
                Body {
                    pos: [0.0; 3],
                    vel: [0.0; 3],
                    mass: 1.0,
                },
                Body {
                    pos: [d, 0.0, 0.0],
                    vel: [0.0; 3],
                    mass: 1.0,
                },
            ])
        };
        let a1 = mk(1.0).accelerations()[0][0];
        let a2 = mk(2.0).accelerations()[0][0];
        assert!((a1 / a2 - 4.0).abs() < 0.01, "ratio {}", a1 / a2);
    }

    #[test]
    fn momentum_is_conserved_over_steps() {
        let mut sys = System::disc(64);
        let p0 = sys.momentum();
        for _ in 0..10 {
            sys.step(1e-3);
        }
        let p1 = sys.momentum();
        for k in 0..3 {
            assert!((p1[k] - p0[k]).abs() < 1e-9, "axis {k}");
        }
    }

    #[test]
    fn energy_roughly_conserved_with_small_steps() {
        let mut sys = System::disc(32);
        let e0 = sys.energy();
        for _ in 0..50 {
            sys.step(1e-4);
        }
        let e1 = sys.energy();
        let rel = ((e1 - e0) / e0).abs();
        assert!(rel < 0.05, "relative drift {rel}");
    }

    #[test]
    fn disc_is_deterministic() {
        let a = System::disc(16);
        let b = System::disc(16);
        assert_eq!(a.bodies, b.bodies);
    }
}
