//! 2-D convolution and max-pooling layers.
//!
//! Feature maps are stored row-per-sample with `[channel][height][width]`
//! flattening, so a batch of images is an ordinary [`Matrix`] and
//! convolutional stacks compose with [`Dense`](crate::Dense) layers without
//! explicit flatten layers. Convolution is implemented via im2col so the
//! inner loop is a single matrix product.

use dagfl_tensor::{he_uniform, MatmulBackend, MatmulBackendKind, Matrix};
use rand::Rng;

use crate::{Layer, NnError};

/// The shape of one image/feature-map sample: channels × height × width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageShape {
    /// Number of channels.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl ImageShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "image dimensions must be positive"
        );
        Self {
            channels,
            height,
            width,
        }
    }

    /// Flattened sample length `channels * height * width`.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Whether the shape holds no pixels (never true for constructed shapes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A 2-D convolution with square kernel, configurable stride and symmetric
/// zero padding.
#[derive(Clone)]
pub struct Conv2d {
    in_shape: ImageShape,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `in_channels * kernel * kernel` rows, `out_channels` columns.
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    /// The im2col matrix of the last training forward pass.
    cols: Matrix,
    /// Position-major feature maps: the forward product, then the
    /// rearranged output gradient.
    maps: Matrix,
    grad_cols: Matrix,
    backend: &'static dyn MatmulBackend,
}

impl Conv2d {
    /// Creates a convolution layer with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if the kernel, stride or padding produce an empty output map.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_shape: ImageShape,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            in_shape.height + 2 * padding >= kernel && in_shape.width + 2 * padding >= kernel,
            "kernel larger than padded input"
        );
        let fan_in = in_shape.channels * kernel * kernel;
        let weight = he_uniform(rng, fan_in, out_channels);
        Self {
            in_shape,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias: Matrix::zeros(1, out_channels),
            grad_weight: Matrix::zeros(fan_in, out_channels),
            grad_bias: Matrix::zeros(1, out_channels),
            cols: Matrix::default(),
            maps: Matrix::default(),
            grad_cols: Matrix::default(),
            backend: MatmulBackendKind::default().as_dyn(),
        }
    }

    /// Convenience constructor with stride 1 and "same" padding
    /// (`kernel / 2`), matching the LEAF CNN configuration.
    pub fn same<R: Rng>(
        rng: &mut R,
        in_shape: ImageShape,
        out_channels: usize,
        kernel: usize,
    ) -> Self {
        Self::new(rng, in_shape, out_channels, kernel, 1, kernel / 2)
    }

    /// The output feature-map shape.
    pub fn out_shape(&self) -> ImageShape {
        ImageShape {
            channels: self.out_channels,
            height: (self.in_shape.height + 2 * self.padding - self.kernel) / self.stride + 1,
            width: (self.in_shape.width + 2 * self.padding - self.kernel) / self.stride + 1,
        }
    }

    /// The input feature-map shape.
    pub fn in_shape(&self) -> ImageShape {
        self.in_shape
    }

    /// Lowers a batch into the im2col matrix `cols`
    /// (`batch * out_h * out_w` rows, `in_c * k * k` columns).
    fn im2col(&self, input: &Matrix, cols: &mut Matrix) {
        let out = self.out_shape();
        let (ic, ih, iw) = (
            self.in_shape.channels,
            self.in_shape.height,
            self.in_shape.width,
        );
        let k = self.kernel;
        cols.reset(input.rows() * out.height * out.width, ic * k * k);
        for b in 0..input.rows() {
            let sample = input.row(b);
            for oh in 0..out.height {
                for ow in 0..out.width {
                    let row_idx = (b * out.height + oh) * out.width + ow;
                    let row = cols.row_mut(row_idx);
                    for c in 0..ic {
                        for kh in 0..k {
                            let h = (oh * self.stride + kh) as isize - self.padding as isize;
                            if h < 0 || h as usize >= ih {
                                continue;
                            }
                            for kw in 0..k {
                                let w = (ow * self.stride + kw) as isize - self.padding as isize;
                                if w < 0 || w as usize >= iw {
                                    continue;
                                }
                                row[(c * k + kh) * k + kw] =
                                    sample[(c * ih + h as usize) * iw + w as usize];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scatters gradient columns back to input-shaped gradients (col2im).
    fn col2im(&self, grad_cols: &Matrix, batch: usize, grad_input: &mut Matrix) {
        let out = self.out_shape();
        let (ic, ih, iw) = (
            self.in_shape.channels,
            self.in_shape.height,
            self.in_shape.width,
        );
        let k = self.kernel;
        grad_input.reset(batch, self.in_shape.len());
        for b in 0..batch {
            let sample = grad_input.row_mut(b);
            for oh in 0..out.height {
                for ow in 0..out.width {
                    let row = grad_cols.row((b * out.height + oh) * out.width + ow);
                    for c in 0..ic {
                        for kh in 0..k {
                            let h = (oh * self.stride + kh) as isize - self.padding as isize;
                            if h < 0 || h as usize >= ih {
                                continue;
                            }
                            for kw in 0..k {
                                let w = (ow * self.stride + kw) as isize - self.padding as isize;
                                if w < 0 || w as usize >= iw {
                                    continue;
                                }
                                sample[(c * ih + h as usize) * iw + w as usize] +=
                                    row[(c * k + kh) * k + kw];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The forward pass through caller-supplied `cols` and `maps`
    /// buffers: the layer's own when training, per-call ones otherwise.
    fn forward_with(
        &self,
        input: &Matrix,
        cols: &mut Matrix,
        maps: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if input.cols() != self.in_shape.len() {
            return Err(NnError::Shape(dagfl_tensor::ShapeError::new(
                "conv2d_forward",
                (input.rows(), input.cols()),
                (1, self.in_shape.len()),
            )));
        }
        self.im2col(input, cols);
        self.backend.matmul_into(cols, &self.weight, maps)?;
        maps.add_row_broadcast(self.bias.as_slice())?;
        // Rearrange (batch*oh*ow, out_c) -> (batch, out_c*oh*ow).
        let shape = self.out_shape();
        let hw = shape.height * shape.width;
        out.reset(input.rows(), shape.len());
        for b in 0..input.rows() {
            let dst = out.row_mut(b);
            for pos in 0..hw {
                let src = maps.row(b * hw + pos);
                for (c, &v) in src.iter().enumerate() {
                    dst[c * hw + pos] = v;
                }
            }
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        let (mut cols, mut maps) = (
            std::mem::take(&mut self.cols),
            std::mem::take(&mut self.maps),
        );
        let forwarded = self.forward_with(input, &mut cols, &mut maps, out);
        (self.cols, self.maps) = (cols, maps);
        forwarded
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.forward_with(input, &mut Matrix::default(), &mut Matrix::default(), out)
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let batch = grad_output.rows();
        let out = self.out_shape();
        let hw = out.height * out.width;
        assert_eq!(
            (self.cols.rows(), grad_output.cols()),
            (batch * hw, out.len()),
            "backward called without the matching forward"
        );
        // Rearrange (batch, out_c*oh*ow) -> (batch*oh*ow, out_c).
        self.maps.reset(batch * hw, self.out_channels);
        for b in 0..batch {
            let src = grad_output.row(b);
            for pos in 0..hw {
                let dst = self.maps.row_mut(b * hw + pos);
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = src[c * hw + pos];
                }
            }
        }
        let backend = self.backend;
        backend.transpose_matmul_into(&self.cols, &self.maps, &mut self.grad_weight)?;
        self.maps.column_sums_into(&mut self.grad_bias);
        if let Some(grad_input) = grad_input {
            backend.matmul_transpose_into(&self.maps, &self.weight, &mut self.grad_cols)?;
            self.col2im(&self.grad_cols, batch, grad_input);
        }
        Ok(())
    }

    fn set_backend(&mut self, backend: MatmulBackendKind) {
        self.backend = backend.as_dyn();
    }

    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        update(&mut self.weight, &self.grad_weight);
        update(&mut self.bias, &self.grad_bias);
    }

    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        source(&mut self.weight);
        source(&mut self.bias);
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("in_shape", &self.in_shape)
            .field("out_channels", &self.out_channels)
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .field("padding", &self.padding)
            .finish()
    }
}

/// Max pooling over square windows.
#[derive(Clone)]
pub struct MaxPool2d {
    in_shape: ImageShape,
    pool: usize,
    stride: usize,
    /// For each sample and output element of the last training forward
    /// pass, the flat input index of the max (sample-major).
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit into the input.
    pub fn new(in_shape: ImageShape, pool: usize, stride: usize) -> Self {
        assert!(pool > 0 && stride > 0, "pool and stride must be positive");
        assert!(
            in_shape.height >= pool && in_shape.width >= pool,
            "pool window larger than input"
        );
        Self {
            in_shape,
            pool,
            stride,
            argmax: Vec::new(),
        }
    }

    /// The output feature-map shape.
    pub fn out_shape(&self) -> ImageShape {
        ImageShape {
            channels: self.in_shape.channels,
            height: (self.in_shape.height - self.pool) / self.stride + 1,
            width: (self.in_shape.width - self.pool) / self.stride + 1,
        }
    }

    /// Pools `input` into `out`, handing `seen` the flat input index of
    /// each maximum in output order.
    fn pool_batch(
        &self,
        input: &Matrix,
        out: &mut Matrix,
        mut seen: impl FnMut(usize),
    ) -> Result<(), NnError> {
        if input.cols() != self.in_shape.len() {
            return Err(NnError::Shape(dagfl_tensor::ShapeError::new(
                "maxpool_forward",
                (input.rows(), input.cols()),
                (1, self.in_shape.len()),
            )));
        }
        let shape = self.out_shape();
        let (ih, iw) = (self.in_shape.height, self.in_shape.width);
        out.reset(input.rows(), shape.len());
        for b in 0..input.rows() {
            let sample = input.row(b);
            let dst = out.row_mut(b);
            for c in 0..shape.channels {
                for oh in 0..shape.height {
                    for ow in 0..shape.width {
                        let mut best_idx = 0;
                        let mut best = f32::NEG_INFINITY;
                        for ph in 0..self.pool {
                            for pw in 0..self.pool {
                                let h = oh * self.stride + ph;
                                let w = ow * self.stride + pw;
                                let idx = (c * ih + h) * iw + w;
                                if sample[idx] > best {
                                    best = sample[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        dst[(c * shape.height + oh) * shape.width + ow] = best;
                        seen(best_idx);
                    }
                }
            }
        }
        Ok(())
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        let mut argmax = std::mem::take(&mut self.argmax);
        argmax.clear();
        let pooled = self.pool_batch(input, out, |idx| argmax.push(idx));
        self.argmax = argmax;
        pooled
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.pool_batch(input, out, |_| {})
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        assert_eq!(
            grad_output.len(),
            self.argmax.len(),
            "backward called without the matching forward"
        );
        grad_input.reset(grad_output.rows(), self.in_shape.len());
        let routes = self.argmax.chunks_exact(grad_output.cols().max(1));
        for (b, route) in routes.enumerate() {
            let dst = grad_input.row_mut(b);
            for (&in_idx, &g) in route.iter().zip(grad_output.row(b)) {
                dst[in_idx] += g;
            }
        }
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for MaxPool2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxPool2d")
            .field("in_shape", &self.in_shape)
            .field("pool", &self.pool)
            .field("stride", &self.stride)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::OwnedPasses;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn image_shape_len() {
        assert_eq!(ImageShape::new(3, 4, 5).len(), 60);
        assert!(!ImageShape::new(1, 1, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn image_shape_rejects_zero() {
        ImageShape::new(0, 4, 5);
    }

    #[test]
    fn conv_output_shape_valid_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(&mut rng, ImageShape::new(1, 5, 5), 2, 3, 1, 0);
        assert_eq!(conv.out_shape(), ImageShape::new(2, 3, 3));
    }

    #[test]
    fn conv_output_shape_same_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::same(&mut rng, ImageShape::new(3, 8, 8), 16, 5);
        assert_eq!(conv.out_shape(), ImageShape::new(16, 8, 8));
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, ImageShape::new(1, 4, 4), 1, 1, 1, 0);
        // 1x1 kernel weight = 1, bias = 0: convolution is the identity map.
        let mut first = true;
        conv.load_parameters(&mut |m| {
            m[(0, 0)] = if first { 1.0 } else { 0.0 };
            first = false;
        });
        let x = Matrix::from_fn(2, 16, |r, c| (r * 16 + c) as f32);
        let y = conv.forward_owned(&x).unwrap();
        assert!(y.max_abs_diff(&x).unwrap() < 1e-6);
    }

    #[test]
    fn conv_known_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, ImageShape::new(1, 3, 3), 1, 3, 1, 0);
        // All-ones kernel, zero bias: output = sum of the input.
        let mut idx = 0;
        conv.load_parameters(&mut |m| {
            m.map_in_place(|_| if idx == 0 { 1.0 } else { 0.0 });
            idx += 1;
        });
        let x = Matrix::from_fn(1, 9, |_, c| c as f32);
        let y = conv.forward_owned(&x).unwrap();
        assert_eq!(y.shape(), (1, 1));
        assert!((y[(0, 0)] - 36.0).abs() < 1e-5);
    }

    #[test]
    fn conv_forward_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::same(&mut rng, ImageShape::new(2, 6, 6), 4, 3);
        let x = Matrix::from_fn(3, 72, |r, c| ((r * 72 + c) % 13) as f32 * 0.1);
        let a = conv.forward_owned(&x).unwrap();
        let b = conv.inference_owned(&x).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn conv_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(&mut rng, ImageShape::new(2, 5, 5), 3, 3, 1, 1);
        let x = Matrix::from_fn(2, 50, |_, c| c as f32 * 0.01);
        let y = conv.forward_owned(&x).unwrap();
        let grad = Matrix::filled(y.rows(), y.cols(), 1.0);
        let gi = conv.backward_owned(&grad).unwrap();
        assert_eq!(gi.shape(), x.shape());
        conv.apply_update(&mut |p, g| assert_eq!(p.shape(), g.shape()));
    }

    #[test]
    fn conv_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(&mut rng, ImageShape::new(1, 4, 4), 1, 3, 1, 0);
        assert!(conv.forward_owned(&Matrix::zeros(1, 15)).is_err());
    }

    #[test]
    fn maxpool_known_values() {
        let mut pool = MaxPool2d::new(ImageShape::new(1, 4, 4), 2, 2);
        let x = Matrix::from_fn(1, 16, |_, c| c as f32);
        let y = pool.forward_owned(&x).unwrap();
        assert_eq!(y.shape(), (1, 4));
        assert_eq!(y.row(0), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(ImageShape::new(1, 2, 2), 2, 2);
        let x = Matrix::from_rows(&[&[1.0, 9.0, 3.0, 4.0]]).unwrap();
        pool.forward_owned(&x).unwrap();
        let grad = Matrix::filled(1, 1, 5.0);
        let gi = pool.backward_owned(&grad).unwrap();
        assert_eq!(gi.row(0), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_multi_channel_independence() {
        let mut pool = MaxPool2d::new(ImageShape::new(2, 2, 2), 2, 2);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0]]).unwrap();
        let y = pool.forward_owned(&x).unwrap();
        assert_eq!(y.row(0), &[4.0, 40.0]);
    }

    #[test]
    fn maxpool_has_no_parameters() {
        let pool = MaxPool2d::new(ImageShape::new(1, 4, 4), 2, 2);
        assert_eq!(pool.num_parameters(), 0);
    }

    #[test]
    fn conv_pool_stack_composes() {
        use crate::{Model, Sequential, SgdConfig};
        let mut rng = StdRng::seed_from_u64(9);
        let in_shape = ImageShape::new(1, 8, 8);
        let conv = Conv2d::same(&mut rng, in_shape, 4, 3);
        let pool = MaxPool2d::new(conv.out_shape(), 2, 2);
        let flat = pool.out_shape().len();
        let mut model = Sequential::new(vec![
            Box::new(conv),
            Box::new(crate::Relu::new()),
            Box::new(pool),
            Box::new(crate::Dense::new(&mut rng, flat, 3)),
        ]);
        let x = Matrix::from_fn(6, 64, |r, c| ((r + c) % 5) as f32 * 0.2);
        let y = vec![0, 1, 2, 0, 1, 2];
        let loss = model.train_batch(&x, &y, &SgdConfig::new(0.05)).unwrap();
        assert!(loss.is_finite());
    }
}
