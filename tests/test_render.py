"""The SVG renderer against the rational plane-point reader it replaced."""

import random
from decimal import Decimal, localcontext
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from tropigon import HEEGNER_DS, QuadInt, QuadRat, field, render, render_polygon_svg, scale_act
from tropigon.selftest import random_polygon

fields = st.sampled_from([field(d) for d in HEEGNER_DS])


def _old_display(p, d):
    # one reduced rational coordinate at a time, as read from orbit_points()
    with localcontext() as ctx:
        ctx.prec = 30
        x = Decimal(p.x.numerator) / Decimal(p.x.denominator)
        y = Decimal(p.y.numerator) / Decimal(p.y.denominator) * render._sqrt_d(d)
    return x, y


def _old_points(q):
    return [_old_display(v, q.field.d) for v in q.orbit_points()]


@st.composite
def scaled_polygons(draw, f):
    # integer polygons from the selftest generator, scaled so that the stored
    # denominator and the coordinates share factors
    p = random_polygon(random.Random(draw(st.integers(0, 2**32))), f, degenerate_rate=0.2)
    num = QuadInt(f, draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
    return scale_act(QuadRat.make(num, draw(st.integers(1, 12))), p)


@given(st.data())
def test_svg_matches_the_plane_point_reader(data):
    f = data.draw(fields)
    p = data.draw(scaled_polygons(f))
    overlays = data.draw(st.lists(scaled_polygons(f), max_size=2))
    got = render_polygon_svg(p, overlays)
    with mock.patch.object(render, "_display", _old_points):
        want = render_polygon_svg(p, overlays)
    assert got == want
