package workload

import (
	"fmt"
	"slices"
	"sync"
)

// The six CNN workloads of the paper's evaluation (Section V/VI). Shapes
// are the conventional published architectures; AlexNet follows the paper's
// variant whose second layer is the largest working set (≈1.05 MB per
// input, giving the TPU's batch of 22 in a 24 MB buffer).

// conv is a Layer literal helper.
func conv(name string, h, w, c, r, s, m, stride, pad int) Layer {
	return Layer{Name: name, Kind: Conv, H: h, W: w, C: c, R: r, S: s, M: m, Stride: stride, Pad: pad}
}

func dwconv(name string, h, w, c, r, s, stride, pad int) Layer {
	return Layer{Name: name, Kind: DepthwiseConv, H: h, W: w, C: c, R: r, S: s, M: c, Stride: stride, Pad: pad}
}

func fc(name string, in, out int) Layer {
	return Layer{Name: name, Kind: FullyConnected, H: 1, W: 1, C: in, R: 1, S: 1, M: out, Stride: 1}
}

func pool(name string, h, w, c, r, stride, pad int) Layer {
	return Layer{Name: name, Kind: Pool, H: h, W: w, C: c, R: r, S: r, M: c, Stride: stride, Pad: pad}
}

// AlexNet returns the 8-layer AlexNet (Krizhevsky et al.). The stem keeps
// conv2 at full 55×55 resolution, making it the largest layer (≈1.05 MB
// in+out per input), matching the paper's Table II batch arithmetic.
func AlexNet() Network {
	return Network{Name: "AlexNet", Layers: []Layer{
		conv("conv1", 227, 227, 3, 11, 11, 96, 4, 0),
		conv("conv2", 55, 55, 96, 5, 5, 256, 1, 2),
		pool("pool2", 55, 55, 256, 3, 2, 0),
		conv("conv3", 27, 27, 256, 3, 3, 384, 1, 1),
		conv("conv4", 27, 27, 384, 3, 3, 384, 1, 1),
		conv("conv5", 27, 27, 384, 3, 3, 256, 1, 1),
		pool("pool5", 27, 27, 256, 3, 2, 0),
		pool("pool6", 13, 13, 256, 3, 2, 0),
		fc("fc6", 6*6*256, 4096),
		fc("fc7", 4096, 4096),
		fc("fc8", 4096, 1000),
	}}
}

// VGG16 returns the 16-layer VGG-D configuration (Simonyan & Zisserman).
func VGG16() Network {
	return Network{Name: "VGG16", Layers: vggConvStack(append([]Layer{},
		fc("fc6", 7*7*512, 4096),
		fc("fc7", 4096, 4096),
		fc("fc8", 4096, 1000),
	)...)}
}

// vggConvStack builds the 13-conv VGG16 backbone followed by tail.
func vggConvStack(tail ...Layer) []Layer {
	layers := []Layer{
		conv("conv1_1", 224, 224, 3, 3, 3, 64, 1, 1),
		conv("conv1_2", 224, 224, 64, 3, 3, 64, 1, 1),
		pool("pool1", 224, 224, 64, 2, 2, 0),
		conv("conv2_1", 112, 112, 64, 3, 3, 128, 1, 1),
		conv("conv2_2", 112, 112, 128, 3, 3, 128, 1, 1),
		pool("pool2", 112, 112, 128, 2, 2, 0),
		conv("conv3_1", 56, 56, 128, 3, 3, 256, 1, 1),
		conv("conv3_2", 56, 56, 256, 3, 3, 256, 1, 1),
		conv("conv3_3", 56, 56, 256, 3, 3, 256, 1, 1),
		pool("pool3", 56, 56, 256, 2, 2, 0),
		conv("conv4_1", 28, 28, 256, 3, 3, 512, 1, 1),
		conv("conv4_2", 28, 28, 512, 3, 3, 512, 1, 1),
		conv("conv4_3", 28, 28, 512, 3, 3, 512, 1, 1),
		pool("pool4", 28, 28, 512, 2, 2, 0),
		conv("conv5_1", 14, 14, 512, 3, 3, 512, 1, 1),
		conv("conv5_2", 14, 14, 512, 3, 3, 512, 1, 1),
		conv("conv5_3", 14, 14, 512, 3, 3, 512, 1, 1),
		pool("pool5", 14, 14, 512, 2, 2, 0),
	}
	return append(layers, tail...)
}

// ResNet50 returns the 50-layer residual network (He et al.), modelled as
// its bottleneck convolution chain; the shortcut additions contribute no
// MACs to the systolic datapath.
func ResNet50() Network {
	layers := []Layer{
		conv("conv1", 224, 224, 3, 7, 7, 64, 2, 3),
		pool("pool1", 112, 112, 64, 3, 2, 1),
	}
	stage := func(name string, h, cin, mid, out, blocks int, downsample bool) {
		c := cin
		for b := 0; b < blocks; b++ {
			s := 1
			hin := h
			if b == 0 && downsample {
				s = 2
				hin = 2 * h
			}
			if b == 0 {
				// Projection shortcut matching the block's output shape.
				layers = append(layers,
					conv(fmt.Sprintf("%s_proj", name), hin, hin, c, 1, 1, out, s, 0))
			}
			layers = append(layers,
				conv(fmt.Sprintf("%s_%d_a", name, b+1), hin, hin, c, 1, 1, mid, s, 0),
				conv(fmt.Sprintf("%s_%d_b", name, b+1), h, h, mid, 3, 3, mid, 1, 1),
				conv(fmt.Sprintf("%s_%d_c", name, b+1), h, h, mid, 1, 1, out, 1, 0),
			)
			c = out
		}
	}
	stage("conv2", 56, 64, 64, 256, 3, false)
	stage("conv3", 28, 256, 128, 512, 4, true)
	stage("conv4", 14, 512, 256, 1024, 6, true)
	stage("conv5", 7, 1024, 512, 2048, 3, true)
	layers = append(layers,
		pool("avgpool", 7, 7, 2048, 7, 1, 0),
		fc("fc", 2048, 1000),
	)
	return Network{Name: "ResNet50", Layers: layers}
}

// GoogLeNet returns the 22-layer Inception-v1 network (Szegedy et al.).
// Inception branches all read the module input, so the layer list is not a
// strict chain; Validate handles the branching shapes.
func GoogLeNet() Network {
	var layers []Layer
	inception := func(name string, h, cin, c1, c3r, c3, c5r, c5, pp int) {
		layers = append(layers,
			conv(name+"/1x1", h, h, cin, 1, 1, c1, 1, 0),
			conv(name+"/3x3_reduce", h, h, cin, 1, 1, c3r, 1, 0),
			conv(name+"/3x3", h, h, c3r, 3, 3, c3, 1, 1),
			conv(name+"/5x5_reduce", h, h, cin, 1, 1, c5r, 1, 0),
			conv(name+"/5x5", h, h, c5r, 5, 5, c5, 1, 2),
			conv(name+"/pool_proj", h, h, cin, 1, 1, pp, 1, 0),
		)
	}
	layers = append(layers,
		conv("conv1", 224, 224, 3, 7, 7, 64, 2, 3),
		pool("pool1", 112, 112, 64, 3, 2, 1),
		conv("conv2_reduce", 56, 56, 64, 1, 1, 64, 1, 0),
		conv("conv2", 56, 56, 64, 3, 3, 192, 1, 1),
		pool("pool2", 56, 56, 192, 3, 2, 1),
	)
	inception("3a", 28, 192, 64, 96, 128, 16, 32, 32)
	inception("3b", 28, 256, 128, 128, 192, 32, 96, 64)
	layers = append(layers, pool("pool3", 28, 28, 480, 3, 2, 1))
	inception("4a", 14, 480, 192, 96, 208, 16, 48, 64)
	inception("4b", 14, 512, 160, 112, 224, 24, 64, 64)
	inception("4c", 14, 512, 128, 128, 256, 24, 64, 64)
	inception("4d", 14, 512, 112, 144, 288, 32, 64, 64)
	inception("4e", 14, 528, 256, 160, 320, 32, 128, 128)
	layers = append(layers, pool("pool4", 14, 14, 832, 3, 2, 1))
	inception("5a", 7, 832, 256, 160, 320, 32, 128, 128)
	inception("5b", 7, 832, 384, 192, 384, 48, 128, 128)
	layers = append(layers,
		pool("avgpool", 7, 7, 1024, 7, 1, 0),
		fc("fc", 1024, 1000),
	)
	return Network{Name: "GoogLeNet", Layers: layers}
}

// MobileNet returns MobileNet-v1 (Howard et al.): a stem convolution and 13
// depthwise-separable pairs. Its small filter counts (< 64 in early layers)
// make it the workload that benefits most from SuperNPU's narrow PE array.
func MobileNet() Network {
	layers := []Layer{conv("conv1", 224, 224, 3, 3, 3, 32, 2, 1)}
	h, c := 112, 32
	sep := func(i, stride, out int) {
		layers = append(layers, dwconv(fmt.Sprintf("dw%d", i), h, h, c, 3, 3, stride, 1))
		if stride == 2 {
			h /= 2
		}
		layers = append(layers, conv(fmt.Sprintf("pw%d", i), h, h, c, 1, 1, out, 1, 0))
		c = out
	}
	sep(1, 1, 64)
	sep(2, 2, 128)
	sep(3, 1, 128)
	sep(4, 2, 256)
	sep(5, 1, 256)
	sep(6, 2, 512)
	for i := 7; i <= 11; i++ {
		sep(i, 1, 512)
	}
	sep(12, 2, 1024)
	sep(13, 1, 1024)
	layers = append(layers,
		pool("avgpool", 7, 7, 1024, 7, 1, 0),
		fc("fc", 1024, 1000),
	)
	return Network{Name: "MobileNet", Layers: layers}
}

// FasterRCNN returns the Faster R-CNN detector (Ren et al.) with its VGG16
// backbone at the paper's 224×224 input, the region-proposal network, and
// the detection head; the proposal/ROI-pooling plumbing contributes no MACs.
func FasterRCNN() Network {
	layers := vggConvStack() // backbone up to conv5_3 + pool5
	// Region proposal network on the 14×14×512 feature map.
	layers = append(layers,
		conv("rpn/conv", 14, 14, 512, 3, 3, 512, 1, 1),
		conv("rpn/cls", 14, 14, 512, 1, 1, 18, 1, 0),
		conv("rpn/bbox", 14, 14, 512, 1, 1, 36, 1, 0),
		// Detection head over the pooled 7×7×512 ROI features.
		fc("head/fc6", 7*7*512, 4096),
		fc("head/fc7", 4096, 4096),
		fc("head/cls", 4096, 21),
		fc("head/bbox", 4096, 84),
	)
	return Network{Name: "FasterRCNN", Layers: layers}
}

// templates holds the six evaluation workloads, built on first use rather
// than at package init so process start-up does not pay for them.
var templates = sync.OnceValue(func() []Network {
	return []Network{
		AlexNet(), FasterRCNN(), GoogLeNet(), MobileNet(), ResNet50(), VGG16(),
	}
})

// All returns the paper's six evaluation workloads in Fig. 23 order. The
// networks are built once and their layer slices are shared by every
// caller: treat them as read-only, like every cached result. The returned
// outer slice is the caller's own.
func All() []Network { return slices.Clone(templates()) }

// TemplateIndex reports whether net equals one of the six evaluation
// workloads, and which one in All's order. A network equals a template
// when its name and every layer are equal. The networks All and ByName
// hand out share the template's layer slice, so they are recognised in
// O(1) by that slice's backing array, length and name; any other network
// with a template's name and layer count, such as a constructor's fresh
// copy or a caller's deep copy, is compared layer by layer.
func TemplateIndex(net Network) (int, bool) {
	for i, t := range templates() {
		if len(net.Layers) != len(t.Layers) || net.Name != t.Name {
			continue
		}
		if &net.Layers[0] == &t.Layers[0] || slices.Equal(net.Layers, t.Layers) {
			return i, true
		}
		return 0, false // template names are distinct
	}
	return 0, false
}

// ByName returns the named workload, whose layer slice is shared and
// read-only like All's, or an error listing valid names.
func ByName(name string) (Network, error) {
	for _, n := range templates() {
		if n.Name == name {
			return n, nil
		}
	}
	var names []string
	for _, n := range templates() {
		names = append(names, n.Name)
	}
	return Network{}, fmt.Errorf("workload: unknown network %q (have %v)", name, names)
}
