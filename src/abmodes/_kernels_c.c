/* Compiled numerical kernels: the C twin of `abmodes._kernels_py`.
 *
 * Each function below mirrors the Python function of the same name, one
 * arithmetic operation for one, so both return the same doubles; the tests
 * in `tests/test_backends.py` compare them with ==.  Edit the two together.
 * `setup.py` compiles this file with -ffp-contract=off, because a fused
 * multiply-add would round once where Python rounds twice.
 *
 * Domain policing (x < 0, poles, order caps) is the caller's job, as in the
 * Python twin: `specfun` validates before calling in.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static const double PI = 3.141592653589793;
static const double SQRT_TWO_PI = 2.5066282746310002;

/* Lanczos g = 7, n = 9 coefficient set (double-precision grade). */
static const double LANCZOS[9] = {
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
};

/* Gauss-Legendre nodes and weights on [-1, 1], order 15. */
static const double G15_NODE[15] = {
    -0.9879925180204854, -0.937273392400706, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.937273392400706, 0.9879925180204854,
};
static const double G15_WEIGHT[15] = {
    0.030753241996118647, 0.07036604748810807, 0.10715922046717177,
    0.1395706779261539, 0.16626920581699378, 0.18616100001556188,
    0.19843148532711125, 0.2025782419255609, 0.19843148532711125,
    0.18616100001556188, 0.16626920581699378, 0.1395706779261539,
    0.10715922046717177, 0.07036604748810807, 0.030753241996118647,
};

/* Gauss-Kronrod pair on [-1, 1]: the K21 weight of the center node, then
 * node x, K21 weight and G10 weight for the ten symmetric pairs +-x,
 * innermost first.  The G10 weight is 0.0 at the Kronrod-only nodes. */
static const double K21_CENTER = 0.1494455540029169;
static const double GK21_NODE[10] = {
    0.14887433898163122, 0.2943928627014602, 0.4333953941292472,
    0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
    0.8650633666889845, 0.9301574913557082, 0.9739065285171717,
    0.9956571630258081,
};
static const double K21_WEIGHT[10] = {
    0.14773910490133849, 0.14277593857706009, 0.13470921731147334,
    0.12349197626206584, 0.10938715880229764, 0.0931254545836976,
    0.07503967481091996, 0.054755896574351995, 0.032558162307964725,
    0.011694638867371874,
};
static const double G10_WEIGHT[10] = {
    0.29552422471475287, 0.0, 0.26926671930999635, 0.0, 0.21908636251598204,
    0.0, 0.1494513491505806, 0.0, 0.06667134430868814, 0.0,
};

static double sinpi(double x)
{
    double n = floor(x + 0.5);
    double s = sin(PI * (x - n));
    return ((long)n & 1) ? -s : s;
}

static double gamma_(double x)
{
    if (x < 0.5)
        return PI / (sinpi(x) * gamma_(1.0 - x));
    double z = x - 1.0;
    double acc = LANCZOS[0];
    for (int i = 1; i < 9; i++)
        acc += LANCZOS[i] / (z + i);
    double t = z + 7.5;
    return SQRT_TWO_PI * pow(t, z + 0.5) * exp(-t) * acc;
}

static double series(double nu, double x)
{
    double h = 0.5 * x;
    if (h == 0.0 && nu < 0.0)
        return NAN;
    double t = pow(h, nu) / gamma_(nu + 1.0);
    double s = t;
    double q = -h * h;
    double biggest = fabs(t);
    for (int k = 1; k < 400; k++) {
        t *= q / (k * (nu + k));
        s += t;
        double a = fabs(t);
        if (a > biggest)
            biggest = a;
        else if (a <= 1e-18 * biggest)
            break;
    }
    return s;
}

static double asymptotic(double nu, double x)
{
    double mu = 4.0 * nu * nu;
    double p = 1.0, q = 0.0, t = 1.0, prev = 1.0;
    for (int k = 1; k < 60; k++) {
        /* m * m, as in the Python twin: exact for these small odd integers */
        double m = 2.0 * k - 1.0;
        t *= (mu - m * m) / (8.0 * k * x);
        double a = fabs(t);
        if (k > 2 && a >= prev)
            break;
        prev = a;
        switch (k & 3) {
        case 0: p += t; break;
        case 1: q += t; break;
        case 2: p -= t; break;
        default: q -= t; break;
        }
        if (a <= 1e-18)
            break;
    }
    double chi = x - (0.5 * nu + 0.25) * PI;
    return sqrt(2.0 / (PI * x)) * (cos(chi) * p - sin(chi) * q);
}

static double bessel_j_(double nu, double x)
{
    if (nu < 0.0 && nu == floor(nu)) {
        double sign = ((long)(-nu) & 1) == 0 ? 1.0 : -1.0;
        return sign * bessel_j_(-nu, x);
    }
    if (x == 0.0)
        return nu == 0.0 ? 1.0 : 0.0;
    if (x <= 12.0)
        return series(nu, x);
    return asymptotic(nu, x);
}

/* Reads the n positional arguments as doubles into out; 0 on success. */
static int doubles(const char *name, PyObject *const *args, Py_ssize_t nargs,
                   Py_ssize_t n, double *out)
{
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *py_gamma(PyObject *Py_UNUSED(module), PyObject *arg)
{
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(gamma_(x));
}

static PyObject *py_bessel_j(PyObject *Py_UNUSED(module), PyObject *const *args,
                             Py_ssize_t nargs)
{
    double a[2];
    if (doubles("bessel_j", args, nargs, 2, a) < 0)
        return NULL;
    return PyFloat_FromDouble(bessel_j_(a[0], a[1]));
}

static PyObject *py_gauss15_product_panel(PyObject *Py_UNUSED(module),
                                          PyObject *const *args, Py_ssize_t nargs)
{
    double a[6];
    if (doubles("gauss15_product_panel", args, nargs, 6, a) < 0)
        return NULL;
    double nu = a[0], mu = a[1], p = a[2], pp = a[3], lo = a[4], hi = a[5];
    double c = 0.5 * (lo + hi);
    double h = 0.5 * (hi - lo);
    double s = 0.0;
    for (int i = 0; i < 15; i++) {
        double r = c + h * G15_NODE[i];
        s += G15_WEIGHT[i] * bessel_j_(nu, p * r) * bessel_j_(mu, pp * r) * r;
    }
    return PyFloat_FromDouble(s * h);
}

static PyObject *py_kronrod21_product_panel(PyObject *Py_UNUSED(module),
                                            PyObject *const *args, Py_ssize_t nargs)
{
    double a[6];
    if (doubles("kronrod21_product_panel", args, nargs, 6, a) < 0)
        return NULL;
    double nu = a[0], mu = a[1], p = a[2], pp = a[3], lo = a[4], hi = a[5];
    double c = 0.5 * (lo + hi);
    double h = 0.5 * (hi - lo);
    double k = K21_CENTER * (bessel_j_(nu, p * c) * bessel_j_(mu, pp * c) * c);
    double g = 0.0;
    for (int i = 0; i < 10; i++) {
        double r = c - h * GK21_NODE[i];
        double f = bessel_j_(nu, p * r) * bessel_j_(mu, pp * r) * r;
        r = c + h * GK21_NODE[i];
        f += bessel_j_(nu, p * r) * bessel_j_(mu, pp * r) * r;
        k += K21_WEIGHT[i] * f;
        g += G10_WEIGHT[i] * f;
    }
    return Py_BuildValue("(dd)", k * h, g * h);
}

static PyMethodDef methods[] = {
    {"gamma", (PyCFunction)py_gamma, METH_O,
     "gamma(x, /)\n--\n\nGamma(x) for real non-pole x (caller excludes 0, -1, -2, ...)."},
    {"bessel_j", (PyCFunction)(void (*)(void))py_bessel_j, METH_FASTCALL,
     "bessel_j(nu, x, /)\n--\n\nJ_nu(x) for real order and x >= 0 (x = 0 only with nu >= 0)."},
    {"gauss15_product_panel", (PyCFunction)(void (*)(void))py_gauss15_product_panel,
     METH_FASTCALL,
     "gauss15_product_panel(nu, mu, p, pp, lo, hi, /)\n--\n\n"
     "15-point Gauss estimate of int_lo^hi J_nu(p r) J_mu(pp r) r dr."},
    {"kronrod21_product_panel", (PyCFunction)(void (*)(void))py_kronrod21_product_panel,
     METH_FASTCALL,
     "kronrod21_product_panel(nu, mu, p, pp, lo, hi, /)\n--\n\n"
     "(Kronrod 21, Gauss 10) estimates of int_lo^hi J_nu(p r) J_mu(pp r) r dr."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "abmodes._kernels_c",
    .m_doc = "Compiled numerical kernels: the C twin of abmodes._kernels_py.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    return PyModuleDef_Init(&module);
}
