//! Batch jobs: the work items the scheduler accepts.

use mph_core::OrderingFamily;
use mph_eigen::{JacobiOptions, JobSpec};
use mph_linalg::Matrix;

/// One independent problem submitted to the batch scheduler.
///
/// The per-job [`JacobiOptions`] govern everything the solo drivers
/// honor — tolerance, sweep budget/forcing, diagonal caching, pipelining —
/// except the link fabric, which is batch-level
/// ([`crate::BatchOptions::fabric`]): sharing one fabric is the point.
#[derive(Debug, Clone)]
pub enum Job {
    /// Symmetric eigendecomposition of a square `a`.
    Eigen { a: Matrix, family: OrderingFamily, opts: JacobiOptions },
    /// One-sided Jacobi SVD of a (possibly rectangular) `a`.
    Svd { a: Matrix, family: OrderingFamily, opts: JacobiOptions },
}

impl Job {
    /// An eigen job with default options.
    pub fn eigen(a: Matrix, family: OrderingFamily) -> Self {
        Job::Eigen { a, family, opts: JacobiOptions::default() }
    }

    /// An SVD job with default options.
    pub fn svd(a: Matrix, family: OrderingFamily) -> Self {
        Job::Svd { a, family, opts: JacobiOptions::default() }
    }

    /// The problem's column count (its distributed dimension).
    pub fn cols(&self) -> usize {
        match self {
            Job::Eigen { a, .. } | Job::Svd { a, .. } => a.cols(),
        }
    }

    /// The job's ordering family — with [`Job::cols`], the signature that
    /// determines its link walk (what the admission layer staggers by).
    pub fn family(&self) -> OrderingFamily {
        match self {
            Job::Eigen { family, .. } | Job::Svd { family, .. } => *family,
        }
    }

    /// Lowers to the driver's job description — a view of this job's
    /// matrix, not a copy.
    pub fn to_spec(&self) -> JobSpec<'_> {
        match self {
            Job::Eigen { a, family, opts } => JobSpec::eigen(a, *family, opts.clone()),
            Job::Svd { a, family, opts } => JobSpec::svd(a, *family, opts.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_eigen::JobKind;
    use mph_linalg::symmetric::random_symmetric;

    #[test]
    fn jobs_lower_to_their_spec_kind() {
        let a = random_symmetric(8, 1);
        assert_eq!(Job::eigen(a.clone(), OrderingFamily::Br).to_spec().kind, JobKind::Eigen);
        assert_eq!(Job::svd(a.clone(), OrderingFamily::Br).to_spec().kind, JobKind::Svd);
        let job = Job::eigen(a, OrderingFamily::Br);
        assert_eq!(job.cols(), 8);
        // The spec is a view of the job's matrix, not a copy.
        let Job::Eigen { a, .. } = &job else { unreachable!("built as an eigen job") };
        assert!(std::ptr::eq(job.to_spec().a, a));
    }
}
