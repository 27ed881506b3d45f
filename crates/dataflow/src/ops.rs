//! Dataflow operations.
//!
//! The operation vocabulary is deliberately small and matches what the
//! paper's application classes need (§II.C): dense matrix–vector products
//! (the crossbar-native op), elementwise nonlinearities, binary combiners
//! and reductions. Every operation knows its arity, port widths, and an
//! analytic FLOP/byte cost — the inputs to both the fabric mapper and the
//! Table 2 characterization.

use crate::error::{DataflowError, Result};

/// Elementwise function kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Elementwise {
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Multiply by a constant.
    Scale(f64),
    /// Add a constant.
    Offset(f64),
    /// Pass through unchanged (useful as a stream tap).
    Identity,
}

impl Elementwise {
    /// Applies the function to one value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Elementwise::Relu => x.max(0.0),
            Elementwise::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Elementwise::Tanh => x.tanh(),
            Elementwise::Scale(k) => k * x,
            Elementwise::Offset(k) => k + x,
            Elementwise::Identity => x,
        }
    }
}

/// Reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Sum of all elements.
    Sum,
    /// Maximum element.
    Max,
    /// Index of the maximum element (argmax, as used by classifiers).
    ArgMax,
}

/// One dataflow operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// External input producing vectors of the given width.
    Source {
        /// Output width.
        width: usize,
    },
    /// External output consuming vectors of the given width.
    Sink {
        /// Input width.
        width: usize,
    },
    /// Dense matrix–vector product `y = xᵀ·W`; `weights` is row-major
    /// `rows × cols` (input width `rows`, output width `cols`).
    MatVec {
        /// Input width.
        rows: usize,
        /// Output width.
        cols: usize,
        /// Row-major weights.
        weights: Vec<f64>,
    },
    /// Elementwise function over a vector.
    Map {
        /// Function applied per element.
        func: Elementwise,
        /// Vector width.
        width: usize,
    },
    /// Elementwise sum of two vectors.
    Add {
        /// Vector width.
        width: usize,
    },
    /// Elementwise product of two vectors.
    Mul {
        /// Vector width.
        width: usize,
    },
    /// Reduce a vector to a scalar.
    Reduce {
        /// Reduction kind.
        kind: Reduction,
        /// Input width.
        width: usize,
    },
    /// Concatenate two vectors.
    Concat {
        /// Width of the first input.
        left: usize,
        /// Width of the second input.
        right: usize,
    },
}

impl Operation {
    /// The largest [`arity`](Self::arity) of any operation.
    pub const MAX_ARITY: usize = 2;

    /// Number of inputs the operation requires.
    pub fn arity(&self) -> usize {
        match self {
            Operation::Source { .. } => 0,
            Operation::Sink { .. }
            | Operation::MatVec { .. }
            | Operation::Map { .. }
            | Operation::Reduce { .. } => 1,
            Operation::Add { .. } | Operation::Mul { .. } | Operation::Concat { .. } => 2,
        }
    }

    /// Expected width of input port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= arity()`.
    pub fn input_width(&self, port: usize) -> usize {
        assert!(port < self.arity(), "port {port} out of range");
        match self {
            Operation::Source { .. } => unreachable!("sources have no inputs"),
            Operation::Sink { width } => *width,
            Operation::MatVec { rows, .. } => *rows,
            Operation::Map { width, .. } => *width,
            Operation::Add { width } | Operation::Mul { width } => *width,
            Operation::Reduce { width, .. } => *width,
            Operation::Concat { left, right } => {
                if port == 0 {
                    *left
                } else {
                    *right
                }
            }
        }
    }

    /// Width of the (single) output; zero for sinks.
    pub fn output_width(&self) -> usize {
        match self {
            Operation::Source { width } => *width,
            Operation::Sink { .. } => 0,
            Operation::MatVec { cols, .. } => *cols,
            Operation::Map { width, .. } => *width,
            Operation::Add { width } | Operation::Mul { width } => *width,
            Operation::Reduce { .. } => 1,
            Operation::Concat { left, right } => left + right,
        }
    }

    /// Stable lowercase name of the operation variant. Used as the span
    /// name in telemetry timelines, so it is `&'static str` by design.
    pub fn kind(&self) -> &'static str {
        match self {
            Operation::Source { .. } => "source",
            Operation::Sink { .. } => "sink",
            Operation::MatVec { .. } => "matvec",
            Operation::Map { .. } => "map",
            Operation::Add { .. } => "add",
            Operation::Mul { .. } => "mul",
            Operation::Reduce { .. } => "reduce",
            Operation::Concat { .. } => "concat",
        }
    }

    /// Floating-point operations per activation of this node.
    pub fn flops(&self) -> u64 {
        match self {
            Operation::Source { .. } | Operation::Sink { .. } | Operation::Concat { .. } => 0,
            Operation::MatVec { rows, cols, .. } => 2 * (*rows as u64) * (*cols as u64),
            Operation::Map { width, .. } => *width as u64,
            Operation::Add { width } | Operation::Mul { width } => *width as u64,
            Operation::Reduce { width, .. } => *width as u64,
        }
    }

    /// Bytes of *stationary* state the node holds (weights live in memory
    /// — the quantity CIM avoids moving).
    pub fn state_bytes(&self) -> u64 {
        match self {
            Operation::MatVec { weights, .. } => (weights.len() * 8) as u64,
            _ => 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::InvalidOperation`] for zero widths,
    /// mis-sized weights or non-finite parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(DataflowError::InvalidOperation { reason });
        match self {
            Operation::Source { width } | Operation::Sink { width } => {
                if *width == 0 {
                    return bad("source/sink width must be positive".into());
                }
            }
            Operation::MatVec {
                rows,
                cols,
                weights,
            } => {
                if *rows == 0 || *cols == 0 {
                    return bad(format!("matvec dims must be positive, got {rows}x{cols}"));
                }
                if weights.len() != rows * cols {
                    return bad(format!(
                        "matvec weights length {} != {rows}x{cols}",
                        weights.len()
                    ));
                }
                if weights.iter().any(|w| !w.is_finite()) {
                    return bad("matvec weights must be finite".into());
                }
            }
            Operation::Map { func, width } => {
                if *width == 0 {
                    return bad("map width must be positive".into());
                }
                if let Elementwise::Scale(k) | Elementwise::Offset(k) = func {
                    if !k.is_finite() {
                        return bad("map constant must be finite".into());
                    }
                }
            }
            Operation::Add { width } | Operation::Mul { width } => {
                if *width == 0 {
                    return bad("binary op width must be positive".into());
                }
            }
            Operation::Reduce { width, .. } => {
                if *width == 0 {
                    return bad("reduce width must be positive".into());
                }
            }
            Operation::Concat { left, right } => {
                if *left == 0 || *right == 0 {
                    return bad("concat widths must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Evaluates the operation on its inputs (reference semantics).
    ///
    /// # Panics
    ///
    /// Panics if input arity or widths do not match — graphs are validated
    /// at build time, so a mismatch here is an executor bug.
    pub fn evaluate(&self, inputs: &[&[f64]]) -> Vec<f64> {
        assert_eq!(inputs.len(), self.arity(), "arity mismatch in evaluate");
        match self {
            Operation::Source { .. } => unreachable!("sources are fed externally"),
            Operation::Sink { .. } => inputs[0].to_vec(),
            Operation::MatVec {
                rows,
                cols,
                weights,
            } => {
                let x = inputs[0];
                assert_eq!(x.len(), *rows, "matvec input width");
                let mut y = vec![0.0; *cols];
                for (r, &xv) in x.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
                    for (c, yv) in y.iter_mut().enumerate() {
                        *yv += xv * weights[r * cols + c];
                    }
                }
                y
            }
            Operation::Map { func, .. } => inputs[0].iter().map(|&x| func.apply(x)).collect(),
            Operation::Add { .. } => inputs[0]
                .iter()
                .zip(inputs[1])
                .map(|(a, b)| a + b)
                .collect(),
            Operation::Mul { .. } => inputs[0]
                .iter()
                .zip(inputs[1])
                .map(|(a, b)| a * b)
                .collect(),
            Operation::Reduce { kind, .. } => {
                let x = inputs[0];
                let v = match kind {
                    Reduction::Sum => x.iter().sum(),
                    Reduction::Max => x.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    Reduction::ArgMax => {
                        x.iter()
                            .enumerate()
                            .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                                if v > bv {
                                    (i, v)
                                } else {
                                    (bi, bv)
                                }
                            })
                            .0 as f64
                    }
                };
                vec![v]
            }
            Operation::Concat { .. } => {
                let mut out = inputs[0].to_vec();
                out.extend_from_slice(inputs[1]);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_functions() {
        assert_eq!(Elementwise::Relu.apply(-2.0), 0.0);
        assert_eq!(Elementwise::Relu.apply(3.0), 3.0);
        assert!((Elementwise::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Elementwise::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(Elementwise::Scale(2.0).apply(3.0), 6.0);
        assert_eq!(Elementwise::Offset(1.0).apply(3.0), 4.0);
        assert_eq!(Elementwise::Identity.apply(7.0), 7.0);
    }

    #[test]
    fn arity_and_widths() {
        let mv = Operation::MatVec {
            rows: 3,
            cols: 2,
            weights: vec![0.0; 6],
        };
        assert_eq!(mv.arity(), 1);
        assert_eq!(mv.input_width(0), 3);
        assert_eq!(mv.output_width(), 2);
        let cat = Operation::Concat { left: 2, right: 5 };
        assert_eq!(cat.arity(), 2);
        assert_eq!(cat.arity(), Operation::MAX_ARITY);
        assert_eq!(cat.input_width(1), 5);
        assert_eq!(cat.output_width(), 7);
        assert_eq!(
            Operation::Reduce {
                kind: Reduction::Sum,
                width: 9
            }
            .output_width(),
            1
        );
    }

    #[test]
    fn validation_catches_bad_ops() {
        assert!(Operation::Source { width: 0 }.validate().is_err());
        assert!(Operation::MatVec {
            rows: 2,
            cols: 2,
            weights: vec![0.0; 3]
        }
        .validate()
        .is_err());
        assert!(Operation::Map {
            func: Elementwise::Scale(f64::NAN),
            width: 4
        }
        .validate()
        .is_err());
        assert!(Operation::Concat { left: 0, right: 1 }.validate().is_err());
        assert!(Operation::Add { width: 4 }.validate().is_ok());
    }

    #[test]
    fn evaluate_matvec() {
        let op = Operation::MatVec {
            rows: 2,
            cols: 2,
            weights: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(op.evaluate(&[&[1.0, 1.0]]), vec![4.0, 6.0]);
    }

    #[test]
    fn evaluate_binary_and_reduce() {
        assert_eq!(
            Operation::Add { width: 2 }.evaluate(&[&[1.0, 2.0], &[10.0, 20.0]]),
            vec![11.0, 22.0]
        );
        assert_eq!(
            Operation::Mul { width: 2 }.evaluate(&[&[3.0, 4.0], &[2.0, 0.5]]),
            vec![6.0, 2.0]
        );
        assert_eq!(
            Operation::Reduce {
                kind: Reduction::Max,
                width: 3
            }
            .evaluate(&[&[1.0, 5.0, 2.0]]),
            vec![5.0]
        );
        assert_eq!(
            Operation::Reduce {
                kind: Reduction::ArgMax,
                width: 3
            }
            .evaluate(&[&[1.0, 5.0, 2.0]]),
            vec![1.0]
        );
    }

    #[test]
    fn flops_and_state() {
        let mv = Operation::MatVec {
            rows: 10,
            cols: 5,
            weights: vec![0.0; 50],
        };
        assert_eq!(mv.flops(), 100);
        assert_eq!(mv.state_bytes(), 400);
        assert_eq!(
            Operation::Map {
                func: Elementwise::Relu,
                width: 7
            }
            .flops(),
            7
        );
        assert_eq!(Operation::Source { width: 7 }.flops(), 0);
    }
}
