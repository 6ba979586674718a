// Fixture for the cachekey rule outside package simcache: a cache owner
// that encodes its own configuration (as scalesim does for a struct
// simcache cannot import) is held to field coverage for its append-style
// key builders, and only for those.
package cachekeyowner

import "strconv"

// Config is the owner's configuration struct.
type Config struct {
	Name      string
	Height    int
	Frequency float64
}

func appendConfigKey(b []byte, c Config) []byte { // want "never reads c.Frequency"
	b = append(b, c.Name...)
	return strconv.AppendInt(b, int64(c.Height), 10)
}

func appendFullConfigKey(b []byte, c Config) []byte { // ok: direct reads plus delegation
	b = appendName(b, c)
	b = strconv.AppendInt(b, int64(c.Height), 10)
	return strconv.AppendFloat(b, c.Frequency, 'g', -1, 64)
}

func appendName(b []byte, c Config) []byte {
	return append(b, c.Name...)
}

// LabelKey is not append-style, so outside simcache it is not a memo key
// builder and may read what it likes.
func LabelKey(c Config) string { return c.Name }
