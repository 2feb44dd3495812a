"""Independent reference implementations the kernels are checked against.

Everything here is deliberately naive: plain Python loops over plain
Python floats, no shared code with the package's vectorized paths.
"""

import numpy as np


def conv3d_reference(x, weights, bias, stride, padding):
    """Direct 7-nested-loop summation of a strided 3D cross-correlation."""
    n, cin, h, w, d = x.shape
    cout, _, kh, kw, kd = weights.shape
    sh, sw, sd = stride
    ph, pw, pd = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    do = (d + 2 * pd - kd) // sd + 1

    xl = x.astype(np.float64).tolist()
    wl = weights.astype(np.float64).tolist()
    bl = [float(v) for v in bias]
    out = np.zeros((n, cout, ho, wo, do), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    for k in range(do):
                        acc = bl[o]
                        for c in range(cin):
                            for a in range(kh):
                                hi = i * sh + a - ph
                                if hi < 0 or hi >= h:
                                    continue
                                for bb in range(kw):
                                    wi = j * sw + bb - pw
                                    if wi < 0 or wi >= w:
                                        continue
                                    for cc in range(kd):
                                        di = k * sd + cc - pd
                                        if di < 0 or di >= d:
                                            continue
                                        acc += wl[o][c][a][bb][cc] * xl[b][c][hi][wi][di]
                        out[b, o, i, j, k] = acc
    return out


def channels_last(x):
    """x's values stored channels-last, (n, h, w, d, c) in memory, seen through
    the (n, c, h, w, d) view the package's ops take and return."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 4, 1)).transpose(0, 4, 1, 2, 3)


def avgpool3d_reference(x, kernel, stride, padding):
    """Windowed sum over the zero-padded input divided by the kernel volume."""
    n, c, h, w, d = x.shape
    kh, kw, kd = kernel
    sh, sw, sd = stride
    ph, pw, pd = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    do = (d + 2 * pd - kd) // sd + 1
    vol = kh * kw * kd

    xl = x.astype(np.float64).tolist()
    out = np.zeros((n, c, ho, wo, do), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    for k in range(do):
                        acc = 0.0
                        for a in range(kh):
                            hi = i * sh + a - ph
                            if hi < 0 or hi >= h:
                                continue
                            for bb in range(kw):
                                wi = j * sw + bb - pw
                                if wi < 0 or wi >= w:
                                    continue
                                for cc in range(kd):
                                    di = k * sd + cc - pd
                                    if di < 0 or di >= d:
                                        continue
                                    acc += xl[b][ch][hi][wi][di]
                        out[b, ch, i, j, k] = acc / vol
    return out


def finite_difference(f, arrays, step_scale=1e-4):
    """Central differences of scalar f() w.r.t. every element of arrays.

    arrays must be float64 and are perturbed in place (restored after).
    The step is step_scale * max(1, |value|) per coordinate.
    """
    grads = []
    for arr in arrays:
        assert arr.dtype == np.float64, "finite differences run on the 64-bit path"
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            v = float(arr[idx])
            h = step_scale * max(1.0, abs(v))
            arr[idx] = v + h
            fp = f()
            arr[idx] = v - h
            fm = f()
            arr[idx] = v
            g[idx] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_close(got, want, rtol, context=""):
    """Elementwise |got - want| <= rtol * max(1, |want|)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, f"{context}: shapes {got.shape} vs {want.shape}"
    denom = np.maximum(1.0, np.abs(want))
    err = np.abs(got - want) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rtol, f"{context}: relative error {worst:.3e} exceeds {rtol:.1e}"
