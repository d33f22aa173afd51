// Package imageio converts real image files (PNG, JPEG) into the
// Float32Array pixel tensors the ML web apps consume: RGB channel planes
// scaled to [0,1], resized to the model's input geometry. It lets the offload CLI and
// examples classify actual photos instead of synthetic pixels.
package imageio

import (
	"fmt"
	"image"
	_ "image/jpeg" // register JPEG decoding
	_ "image/png"  // register PNG decoding
	"io"
	"os"

	"websnap/internal/webapp"
)

// Load reads and decodes an image file and converts it to a [3,H,W]
// channel-planar Float32Array matching the given input shape.
func Load(path string, shape []int) (webapp.Float32Array, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imageio: %w", err)
	}
	defer f.Close()
	return Decode(f, shape)
}

// Decode converts an encoded image stream to a [3,H,W] channel-planar
// Float32Array, resizing (nearest neighbor) to the target shape.
func Decode(r io.Reader, shape []int) (webapp.Float32Array, error) {
	img, _, err := image.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("imageio: decode: %w", err)
	}
	return FromImage(img, shape)
}

// FromImage converts a decoded image to the target shape.
func FromImage(img image.Image, shape []int) (webapp.Float32Array, error) {
	if len(shape) != 3 || shape[0] != 3 {
		return nil, fmt.Errorf("imageio: target shape %v is not [3 H W]", shape)
	}
	h, w := shape[1], shape[2]
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("imageio: non-positive target size %dx%d", h, w)
	}
	bounds := img.Bounds()
	sw, sh := bounds.Dx(), bounds.Dy()
	if sw == 0 || sh == 0 {
		return nil, fmt.Errorf("imageio: empty source image")
	}
	out := make(webapp.Float32Array, 3*h*w)
	plane := h * w
	for y := 0; y < h; y++ {
		sy := bounds.Min.Y + y*sh/h
		for x := 0; x < w; x++ {
			sx := bounds.Min.X + x*sw/w
			r16, g16, b16, _ := img.At(sx, sy).RGBA()
			off := y*w + x
			out[0*plane+off] = float32(r16) / 65535
			out[1*plane+off] = float32(g16) / 65535
			out[2*plane+off] = float32(b16) / 65535
		}
	}
	return out, nil
}
