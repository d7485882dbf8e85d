module vmalloc/bench

go 1.23

require vmalloc v0.0.0

replace vmalloc => ../
