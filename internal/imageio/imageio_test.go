package imageio

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"
	"testing"
)

// testImage builds an 8x8 image: left half red, right half blue.
func testImage() image.Image {
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x < 4 {
				img.Set(x, y, color.RGBA{R: 255, A: 255})
			} else {
				img.Set(x, y, color.RGBA{B: 255, A: 255})
			}
		}
	}
	return img
}

func TestFromImageChannelPlanes(t *testing.T) {
	out, err := FromImage(testImage(), []int{3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*8*8 {
		t.Fatalf("len = %d", len(out))
	}
	plane := 64
	// Left pixel: red plane ~1, blue plane ~0.
	if out[0*plane+0] < 0.99 || out[2*plane+0] > 0.01 {
		t.Errorf("left pixel R=%v B=%v, want ~1/~0", out[0*plane+0], out[2*plane+0])
	}
	// Right pixel: blue plane ~1.
	if out[2*plane+7] < 0.99 || out[0*plane+7] > 0.01 {
		t.Errorf("right pixel R=%v B=%v, want ~0/~1", out[0*plane+7], out[2*plane+7])
	}
}

func TestFromImageResize(t *testing.T) {
	out, err := FromImage(testImage(), []int{3, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*4*4 {
		t.Fatalf("len = %d", len(out))
	}
	plane := 16
	// Downsampled left still red, right still blue.
	if out[0*plane+0] < 0.99 {
		t.Error("resize lost red plane")
	}
	if out[2*plane+3] < 0.99 {
		t.Error("resize lost blue plane")
	}
	// Upsample too.
	up, err := FromImage(testImage(), []int{3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 3*16*16 {
		t.Fatalf("upsample len = %d", len(up))
	}
}

func TestDecodeAndLoadPNG(t *testing.T) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, testImage()); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(bytes.NewReader(buf.Bytes()), []int{3, 8, 8})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out[0] < 0.99 {
		t.Error("decoded red plane wrong")
	}

	path := filepath.Join(t.TempDir(), "img.png")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := Load(path, []int{3, 8, 8})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("Load and Decode disagree")
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.png"), []int{3, 8, 8}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not an image")), []int{3, 4, 4}); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := FromImage(testImage(), []int{1, 4, 4}); err == nil {
		t.Error("non-RGB shape should fail")
	}
	if _, err := FromImage(testImage(), []int{3, 4}); err == nil {
		t.Error("rank-2 shape should fail")
	}
}
