package arch

import (
	"testing"
	"testing/quick"

	"supernpu/internal/sfq"
)

// Table I: the four design points carry the paper's exact configurations.
func TestTable1Presets(t *testing.T) {
	b := Baseline()
	if b.ArrayHeight != 256 || b.ArrayWidth != 256 || b.Registers != 1 {
		t.Errorf("Baseline array wrong: %+v", b)
	}
	if b.IfmapBufBytes != 8*MB || b.OutputBufBytes != 8*MB || b.PsumBufBytes != 8*MB {
		t.Error("Baseline buffers must be 8+8+8 MB")
	}
	if b.WeightBufBytes != 64*KB || b.IntegratedOutput {
		t.Error("Baseline: 64 KB weight buffer, separate psum buffer")
	}

	o := BufferOpt()
	if !o.IntegratedOutput || o.PsumBufBytes != 0 {
		t.Error("Buffer opt. must integrate psum into the output buffer")
	}
	if o.IfmapBufBytes != 12*MB || o.IfmapChunks != 64 || o.OutputChunks != 64 {
		t.Errorf("Buffer opt. buffers wrong: %+v", o)
	}

	r := ResourceOpt()
	if r.ArrayWidth != 64 || r.IfmapBufBytes != 24*MB || r.OutputBufBytes != 24*MB {
		t.Errorf("Resource opt. wrong: %+v", r)
	}
	if r.OutputChunks != 256 || r.WeightBufBytes != 16*KB {
		t.Errorf("Resource opt. division/weight buffer wrong: %+v", r)
	}

	s := SuperNPU()
	if s.Registers != 8 || s.WeightBufBytes != 128*KB || s.ArrayWidth != 64 {
		t.Errorf("SuperNPU wrong: %+v", s)
	}
	if s.Tech != sfq.RSFQ {
		t.Error("designs default to the proven RSFQ technology")
	}

	for _, cfg := range Designs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Config){
		"zero width":          func(c *Config) { c.ArrayWidth = 0 },
		"zero registers":      func(c *Config) { c.Registers = 0 },
		"zero bandwidth":      func(c *Config) { c.MemoryBandwidth = 0 },
		"missing psum":        func(c *Config) { c.PsumBufBytes = 0 },
		"tiny chunked buffer": func(c *Config) { c.IfmapBufBytes = 16; c.IfmapChunks = 64 },
		"psum on integrated":  func(c *Config) { c.IntegratedOutput = true },
		"unknown technology":  func(c *Config) { c.Tech = 7 },
	}
	for name, mutate := range cases {
		cfg := Baseline()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate must reject", name)
		}
	}
}

func TestBufferGeometry(t *testing.T) {
	s := SuperNPU()
	if w := s.IfmapBuf().WidthBytes; w != 256 {
		t.Errorf("ifmap buffer width = %d, want one lane per PE row (256)", w)
	}
	if w := s.OutputBuf().WidthBytes; w != 64 {
		t.Errorf("output buffer width = %d, want one lane per PE column (64)", w)
	}
	if s.PEs() != 64*256 {
		t.Errorf("PEs() = %d", s.PEs())
	}
	if got := s.ActivationCapacity(); got != int64(48*MB) {
		t.Errorf("activation capacity = %d, want 48 MB", got)
	}
	b := Baseline()
	if got := b.ActivationCapacity(); got != int64(24*MB) {
		t.Errorf("Baseline activation capacity = %d, want 24 MB", got)
	}
	if b.PsumBuf().CapacityBytes != 8*MB || b.WeightBuf().CapacityBytes != 64*KB {
		t.Error("psum/weight buffer geometry wrong")
	}
}

func TestPECfgCarriesRegisters(t *testing.T) {
	if SuperNPU().PECfg().Registers != 8 || Baseline().PECfg().Registers != 1 {
		t.Fatal("PECfg must carry the design's register count")
	}
	if SuperNPU().PECfg().Bits != 8 {
		t.Fatal("the paper's PE is 8-bit")
	}
}

// Property: every buffer geometry derived from a valid config validates.
func TestBufferConfigsValidProperty(t *testing.T) {
	f := func(wSel, chunkSel uint8) bool {
		c := BufferOpt()
		c.ArrayWidth = 16 << (wSel % 5) // 16..256
		c.OutputChunks = 1 << (chunkSel % 9)
		if c.Validate() != nil {
			return true // rejected configs are out of scope
		}
		return c.IfmapBuf().Validate() == nil &&
			c.OutputBuf().Validate() == nil &&
			c.WeightBuf().Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
