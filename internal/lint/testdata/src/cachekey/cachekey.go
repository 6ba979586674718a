// Fixture for the cachekey rule. The package is named simcache so the
// rule applies; the structs are module-local by construction (they live in
// this package).
package simcache

import (
	"fmt"
	"strconv"
	"strings"
)

// Config mirrors the shape of a real configuration struct: the key builder
// below forgets Bandwidth, which would alias distinct configs.
type Config struct {
	Name      string
	Height    int
	Bandwidth float64
}

func ConfigKey(c Config) string { // want "never reads c.Bandwidth"
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteString(strconv.Itoa(c.Height))
	return b.String()
}

func FullConfigKey(c Config) string { // ok: every exported field read
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteString(strconv.Itoa(c.Height))
	b.WriteString(strconv.FormatFloat(c.Bandwidth, 'g', -1, 64))
	return b.String()
}

func FormatKey(c Config) string { // ok: %+v serialises the whole struct
	return fmt.Sprintf("%+v", c)
}

// Network and Layer exercise the delegation and element-coverage paths.
type Network struct {
	Name   string
	Layers []Layer
}

type Layer struct {
	Name string
	H, W int
}

func NetworkKey(n Network) string { // ok: delegation covers every field
	var b strings.Builder
	appendNetwork(&b, n)
	return b.String()
}

func appendNetwork(b *strings.Builder, n Network) {
	b.WriteString(n.Name)
	for _, l := range n.Layers {
		b.WriteString(l.Name)
		b.WriteString(strconv.Itoa(l.H))
		b.WriteString(strconv.Itoa(l.W))
	}
}

func LayersKey(n Network) string { // want "never reads l.W"
	var b strings.Builder
	b.WriteString(n.Name)
	for _, l := range n.Layers {
		b.WriteString(l.Name)
		b.WriteString(strconv.Itoa(l.H))
	}
	return b.String()
}

// Proj and Dims model a projection key: a reduced config
// projection plus a name-free shape, keyed together with the shape side
// delegated to a shared append helper.
type Proj struct {
	Height, Width int
	CyclesPerByte float64
}

type Dims struct {
	H, W int
}

func LayerKey(p Proj, d Dims) string { // want "never reads p.CyclesPerByte"
	var b strings.Builder
	b.WriteString(strconv.Itoa(p.Height))
	b.WriteString(strconv.Itoa(p.Width))
	appendDims(&b, d)
	return b.String()
}

func FullLayerKey(p Proj, d Dims) string { // ok: direct reads plus delegation
	var b strings.Builder
	b.WriteString(strconv.Itoa(p.Height))
	b.WriteString(strconv.Itoa(p.Width))
	b.WriteString(strconv.FormatFloat(p.CyclesPerByte, 'g', -1, 64))
	appendDims(&b, d)
	return b.String()
}

func appendDims(b *strings.Builder, d Dims) {
	b.WriteString(strconv.Itoa(d.H))
	b.WriteString(strconv.Itoa(d.W))
}

// Append-style builders write a binary key into a caller-held buffer; the
// rule holds them to the same field coverage.
func appendConfigKey(b []byte, c Config) []byte { // want "never reads c.Height"
	b = append(b, c.Name...)
	return strconv.AppendFloat(b, c.Bandwidth, 'g', -1, 64)
}

func appendFullConfigKey(b []byte, c Config) []byte { // ok: every exported field read
	b = append(b, c.Name...)
	b = strconv.AppendInt(b, int64(c.Height), 10)
	return strconv.AppendFloat(b, c.Bandwidth, 'g', -1, 64)
}
