//! Least-squares fits and linearity figures for transfer curves.
//!
//! The paper's Fig. 7 claims the delay-vs-Vctrl curve is "approximately
//! linear throughout much of the mid-range, with changes in slope near the
//! extremes" — these helpers quantify exactly that.

/// An ordinary least-squares straight-line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits a straight line to `(xs, ys)` by least squares.
///
/// Returns `None` for fewer than two points or degenerate (constant-x)
/// data.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
///
/// # Examples
///
/// ```
/// use vardelay_measure::linear_fit;
///
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).expect("well-posed");
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "x and y must be the same length");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = nf * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return None;
    }
    let slope = (nf * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / nf;

    let mean_y = sy / nf;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot <= 0.0 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Integral nonlinearity: the maximum |deviation| of the curve from the
/// straight line through its endpoints, in the y unit.
///
/// Returns `None` for fewer than two points.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn integral_nonlinearity(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "x and y must be the same length");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let (x0, y0) = (xs[0], ys[0]);
    let (x1, y1) = (xs[n - 1], ys[n - 1]);
    let dx = x1 - x0;
    if dx.abs() < 1e-300 {
        return None;
    }
    let slope = (y1 - y0) / dx;
    Some(
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (y - (y0 + slope * (x - x0))).abs())
            .fold(0.0, f64::max),
    )
}

/// Differential nonlinearity of a stepped curve: the maximum |deviation| of
/// each step height from the mean step height, in the y unit.
///
/// Returns `None` for fewer than two points.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn differential_nonlinearity(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "x and y must be the same length");
    if xs.len() < 2 {
        return None;
    }
    let steps: Vec<f64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = steps.iter().sum::<f64>() / steps.len() as f64;
    Some(steps.iter().map(|s| (s - mean).abs()).fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let xs = [0.0, 0.5, 1.0, 1.5];
        let ys: Vec<f64> = xs.iter().map(|x| 37.0 * x + 2.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 37.0).abs() < 1e-9);
        assert!((f.intercept - 2.0).abs() < 1e-9);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!((f.predict(2.0) - 76.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_r2_below_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                2.0 * x
                    + if (*x as u64).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    }
            })
            .collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 0.01);
        assert!(f.r_squared > 0.99 && f.r_squared < 1.0);
    }

    #[test]
    fn degenerate_fits_are_none() {
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[0.0, 1.0]).is_none());
    }

    #[test]
    fn inl_of_s_curve() {
        // tanh-like curve: endpoints straight line, bulge in the middle.
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (2.0 * (x - 0.5)).tanh()).collect();
        let inl = integral_nonlinearity(&xs, &ys).unwrap();
        assert!(inl > 0.05 && inl < 0.5, "inl {inl}");
    }

    #[test]
    fn inl_of_line_is_zero() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 7.0, 9.0];
        assert!(integral_nonlinearity(&xs, &ys).unwrap() < 1e-12);
    }

    #[test]
    fn dnl_flags_uneven_steps() {
        // Coarse taps measured by the paper: 0, 33, 70, 95 (ideal step 33).
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 33.0, 70.0, 95.0];
        let dnl = differential_nonlinearity(&xs, &ys).unwrap();
        // Steps are 33, 37, 25; mean 31.67 → max deviation 6.67.
        assert!((dnl - 6.666_666).abs() < 1e-3, "dnl {dnl}");
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let _ = linear_fit(&[1.0], &[]);
    }
}
