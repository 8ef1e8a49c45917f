package main

import (
	"fmt"
	"math"
	"reflect"
)

// digest fingerprints every field a value reaches (pointers followed,
// slices element by element), so two results with equal digests are
// equal field for field with overwhelming probability. Runs keep a
// digest of each result instead of the result, so what the benchmark
// holds for verification does not show up in the memory it measures.
func digest(v any) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis, folded per word
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				mix(0)
				return
			}
			mix(1)
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			mix(uint64(v.Len()))
			if fs, ok := v.Interface().([]float64); ok {
				for _, f := range fs {
					mix(math.Float64bits(f))
				}
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Float32, reflect.Float64:
			mix(math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			mix(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			mix(v.Uint())
		case reflect.Bool:
			if v.Bool() {
				mix(1)
			} else {
				mix(0)
			}
		case reflect.String:
			mix(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				mix(uint64(v.String()[i]))
			}
		default:
			panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
		}
	}
	walk(reflect.ValueOf(v))
	return h
}
