package tensor

// MaxPool3x3 writes len(dst) 3x3 max-pool outputs: dst[i] is the maximum
// of the window whose first tap is src[i*stride] in a plane of row length
// w, so the last output reads up to src[(len(dst)-1)*stride+2*w+2]. Taps
// are visited ky-major then kx-minor starting from tap (0,0), and a later
// tap replaces the running maximum only when it is strictly greater, so
// the earlier of two equal values (+0 and -0 compare equal) wins and a NaN
// never displaces anything — but stays if it was the first tap.
//
// With AVX, strides 1 and 2 run eight outputs at a time; a length that is
// not a multiple of eight ends with one more vector over the last eight
// outputs, overlapping the previous one (src and dst are distinct, so
// writing an output twice is harmless). Everything else, and every build
// without the assembly, takes the scalar loop; the two are bit-identical.
//
// Because the window origin advances linearly with i, a caller whose
// output rows are as long as its input rows (stride 1) may pass a span that
// runs across several rows of the plane: outputs whose window straddles a
// row end are well defined (the taps wrap into the neighbouring rows) and
// are the caller's to overwrite.
func MaxPool3x3(dst, src []float32, w, stride int) {
	n := len(dst)
	if n == 0 {
		return
	}
	if !haveAVX || n < 8 || stride > 2 {
		maxPool3x3Scalar(dst, src, w, stride)
		return
	}
	kern := maxPool3x3S1AVX
	if stride == 2 {
		kern = maxPool3x3S2AVX
	}
	_ = src[(n-1)*stride+2*w+2] // the kernels do no bounds checks of their own
	kern(&dst[0], &src[0], w, n&^7)
	if n&7 != 0 {
		kern(&dst[n-8], &src[(n-8)*stride], w, 8)
	}
}

// maxPool3x3Scalar is MaxPool3x3's portable path and the row kernels'
// oracle.
func maxPool3x3Scalar(dst, src []float32, w, stride int) {
	n := (len(dst)-1)*stride + 3
	r0, r1, r2 := src[:n], src[w:w+n], src[2*w:2*w+n]
	for i := range dst {
		j := i * stride
		a, b, c := r0[j:j+3:j+3], r1[j:j+3:j+3], r2[j:j+3:j+3]
		acc := a[0]
		if a[1] > acc {
			acc = a[1]
		}
		if a[2] > acc {
			acc = a[2]
		}
		if b[0] > acc {
			acc = b[0]
		}
		if b[1] > acc {
			acc = b[1]
		}
		if b[2] > acc {
			acc = b[2]
		}
		if c[0] > acc {
			acc = c[0]
		}
		if c[1] > acc {
			acc = c[1]
		}
		if c[2] > acc {
			acc = c[2]
		}
		dst[i] = acc
	}
}
