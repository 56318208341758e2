//! Typed errors for the numerics layer.
//!
//! Root finders and checked quadrature return [`NumericsError`] instead
//! of panicking or silently handing back a best-effort value: callers on
//! input-driven paths (CLI specs, learned laws) surface the failure as a
//! readable non-zero exit instead of an abort, and library callers that
//! *can* tolerate a best-effort answer opt in explicitly with
//! `unwrap_or`.

/// Error from a root finder or a checked quadrature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericsError {
    /// The supplied interval endpoints do not bracket a sign change (or
    /// an endpoint evaluated to NaN).
    NoBracket,
    /// An iterative method exhausted its iteration budget without
    /// meeting the requested tolerance.
    NonConvergence {
        /// Which method gave up (`"bisect"`, `"brent"`, `"newton"`).
        method: &'static str,
        /// The iteration cap that was hit.
        iterations: u32,
    },
    /// An adaptive quadrature finished with an error estimate far above
    /// the requested tolerance (or a non-finite value).
    QuadratureTolerance {
        /// The achieved conservative error estimate.
        error: f64,
        /// The tolerance that was requested.
        tol: f64,
    },
    /// An adaptive quadrature spent its integrand-evaluation budget
    /// before meeting its tolerance (see `quad::QUAD_EVAL_BUDGET`).
    EvalBudget {
        /// Evaluations spent.
        evals: usize,
        /// The budget that was hit.
        budget: usize,
    },
    /// A structurally invalid input (e.g. a zero-order quadrature rule).
    InvalidInput {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::NoBracket => {
                write!(f, "interval endpoints do not bracket a sign change")
            }
            NumericsError::NonConvergence { method, iterations } => {
                write!(
                    f,
                    "{method} did not converge within {iterations} iterations"
                )
            }
            NumericsError::QuadratureTolerance { error, tol } => {
                write!(
                    f,
                    "quadrature error estimate {error:.3e} exceeds tolerance {tol:.3e}"
                )
            }
            NumericsError::EvalBudget { evals, budget } => {
                write!(
                    f,
                    "quadrature spent {evals} integrand evaluations, past its budget of {budget}"
                )
            }
            NumericsError::InvalidInput { what } => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for NumericsError {}
